"""The end-to-end pipeline API (one Table-2/3 row per call)."""

import pytest

from repro.errors import ReproError
from repro.pipeline import TECHNIQUES, run_technique


class TestRunTechnique:
    def test_row_fields_populated(self):
        row = run_technique("mvt", "crush", scale="small")
        assert row.kernel == "mvt" and row.technique == "crush"
        assert row.dsp == 5
        assert row.slices > 0 and row.lut > 0 and row.ff > 0
        assert row.cp_ns > 3.0
        assert row.cycles > 0
        assert row.exec_time_us == pytest.approx(
            row.cp_ns * row.cycles / 1000.0, rel=0.01
        )
        assert row.opt_time_s > 0
        assert row.groups and all(isinstance(g, list) for g in row.groups)
        assert row.estimate is not None

    def test_metrics_dict(self):
        row = run_technique("mvt", "naive", scale="small")
        m = row.metrics()
        assert set(m) == {
            "dsp", "slices", "lut", "ff", "cp_ns", "cycles",
            "exec_time_us", "opt_time_s",
        }

    def test_unknown_technique(self):
        with pytest.raises(ReproError, match="unknown technique"):
            run_technique("mvt", "telepathy")

    def test_simulate_false_skips_cycles(self):
        row = run_technique("mvt", "crush", scale="small", simulate=False)
        assert row.cycles == 0
        assert row.exec_time_us == 0
        assert row.dsp == 5

    def test_size_overrides_forwarded(self):
        small = run_technique("gemm", "naive", scale="small", simulate=True)
        smaller = run_technique(
            "gemm", "naive", scale="small", simulate=True, NI=2, NJ=2, NK=2
        )
        assert smaller.cycles < small.cycles

    def test_all_techniques_listed(self):
        assert TECHNIQUES == ("naive", "inorder", "crush")


class TestStaticAnalysesRunOnce:
    """Token-flow and memdep analysis run once per prepared circuit: the
    lint gate's FL/MD rules reuse the results behind the row columns."""

    @pytest.fixture
    def calls(self, monkeypatch):
        import repro.analysis as analysis
        import repro.analysis.memdep as memdep
        import repro.analysis.tokenflow as tokenflow

        counts = {"tokenflow": 0, "memdep": 0}

        def counting(layer, fn):
            def wrapped(*args, **kwargs):
                counts[layer] += 1
                return fn(*args, **kwargs)
            return wrapped

        for owner in (analysis, tokenflow):
            monkeypatch.setattr(owner, "analyze_circuit", counting(
                "tokenflow", tokenflow.analyze_circuit))
        for owner in (analysis, memdep):
            monkeypatch.setattr(owner, "analyze_kernel", counting(
                "memdep", memdep.analyze_kernel))
        return counts

    @pytest.mark.parametrize("lint", ["off", "warn", "strict"])
    def test_run_technique(self, calls, lint):
        run_technique("gsumif", "crush", scale="small", simulate=False,
                      lint=lint)
        assert calls == {"tokenflow": 1, "memdep": 1}

    def test_run_technique_batch(self, calls):
        from repro.pipeline import run_technique_batch

        rows = run_technique_batch("gsumif", "crush", [100, 101],
                                   scale="small")
        assert len(rows) == 2
        assert calls == {"tokenflow": 1, "memdep": 1}

    def test_shared_analyses_give_the_same_diagnostics(self):
        from repro.pipeline import (
            analyze_memdep,
            lint_prepared,
            predict_ii,
            prepare_circuit,
        )

        for kernel in ("gsumif", "histogram"):
            prep = prepare_circuit(kernel, "crush", scale="small")
            alone = lint_prepared(prep)
            shared = lint_prepared(prep, flow=predict_ii(prep),
                                   memdep=analyze_memdep(prep))
            assert ([d.to_dict() for d in shared.diagnostics]
                    == [d.to_dict() for d in alone.diagnostics]), kernel


class TestResultSerialization:
    def test_from_dict_ignores_legacy_data_plane(self):
        from repro.pipeline import TechniqueResult, run_technique_batch

        row = run_technique_batch("gsumif", "crush", [100, 101],
                                  scale="small")[1]
        d = row.to_dict()
        assert "data_plane" not in d
        # Artifacts from sweeps that still recorded the mask loop's data
        # plane load unchanged.
        legacy = dict(d, data_plane="numpy")
        back = TechniqueResult.from_dict(legacy)
        assert back == row
        assert back.to_dict() == d
        assert TechniqueResult.from_json(back.to_json()) == row
