"""The benchmark's tracing hooks resolve against the package.

``perfbench`` times each layer by replacing module attributes, such as
``symmat.char_poly`` or ``dispersion.build_hamiltonian``, with wrappers.
A renamed or deleted attribute would otherwise show only when the
benchmark runs.
"""

from pathlib import Path

from diracver import clifford, dispersion, symmat

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_patch_target_resolves_and_is_restored(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    import workloads

    tracer = spans.Tracer()
    originals = {}
    try:
        workloads.install_spans(tracer)
        workloads.install_counters(tracer)
        for owner, attr, original in tracer._patches:
            originals.setdefault((owner, attr), original)
        assert all(getattr(owner, attr) is not original for (owner, attr), original in originals.items())
        # char_poly reaches build_hamiltonian through symmat's module global, so its span records;
        # check_dispersion reaches char_poly and reduce_at_dispersion through its own module globals
        tracer.run_op(0, lambda: dispersion.check_dispersion(clifford.catalog("dirac-pauli"), 2))
        self_time, _, calls = tracer.per_op()
        assert calls[0]["symmat.char_poly"] == calls[0]["symmat.build_hamiltonian"] == 1
        assert self_time[0]["symmat.build_hamiltonian"] > 0
        # one reduction per derivative order r = 2 asks for: P and P', never P''
        assert calls[0]["algebra.reduce_at_dispersion"] == 2
        assert self_time[0]["symmat.char_poly"] > 0
        assert self_time[0]["algebra.reduce_at_dispersion"] > 0
    finally:
        tracer.restore()

    for module in (symmat, dispersion, clifford):
        for attr in ("build_hamiltonian", "char_poly"):
            assert (module, attr) in originals
    assert all(getattr(owner, attr) is original for (owner, attr), original in originals.items())
