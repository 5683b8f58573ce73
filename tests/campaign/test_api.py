"""repro.api.run: dispatch, spec attachment, CLI equivalence."""

import json

import pytest

from repro import api
from repro.cli import main
from repro.spec import RunSpec, run_flags_parser, spec_from_args


class TestDispatch:
    def test_native_model(self):
        r = api.run(RunSpec(kind="native", n=2000))
        assert r.kind == "native" and r.gflops > 0

    def test_native_numeric(self):
        r = api.run(RunSpec(kind="native", n=200, nb=50, numeric=True))
        assert r.passed

    def test_hybrid_model(self):
        r = api.run(RunSpec(kind="hybrid", n=24000))
        assert r.kind == "hybrid" and r.tflops > 0

    def test_hybrid_numeric(self):
        r = api.run(RunSpec(kind="hybrid", n=256, numeric=True))
        assert r.passed and r.nb == 64

    def test_distributed(self):
        r = api.run(RunSpec(kind="distributed", n=48, nb=8, p=2, q=2))
        assert r.passed

    def test_rejects_non_spec(self):
        with pytest.raises(TypeError):
            api.run({"kind": "native", "n": 100})


class TestSpecAttachment:
    def test_result_carries_normalized_spec(self):
        spec = RunSpec(kind="native", n=2000)
        r = api.run(spec)
        assert r.spec == spec.normalized()

    def test_to_dict_carries_spec_block_and_hash(self):
        spec = RunSpec(kind="distributed", n=48, nb=8, p=2, q=2)
        d = api.run(spec).to_dict()
        assert d["spec_hash"] == spec.canonical_hash()
        assert d["spec"] == spec.to_dict()

    def test_machine_profile_resolves_into_result_spec(self):
        r = api.run(RunSpec(kind="hybrid", n=24000, machine="knc-2card-64gb"))
        assert r.spec.cards == 2

    def test_tflops_property_shared_across_kinds(self):
        for spec in (RunSpec(kind="native", n=2000),
                     RunSpec(kind="hybrid", n=24000)):
            r = api.run(spec)
            assert r.tflops == pytest.approx(r.gflops / 1e3)


class TestCLIEquivalence:
    """Every CLI run subcommand is exactly spec_from_args + api.run."""

    CASES = {
        "native": ["--n", "2000"],
        "hybrid": ["--n", "24000"],
        "distributed": ["--n", "48", "--nb", "8"],
    }

    @pytest.mark.parametrize("kind", sorted(CASES))
    def test_cli_json_equals_api_run(self, kind, capsys):
        argv = self.CASES[kind]
        assert main([kind, *argv, "--json"]) == 0
        cli_doc = json.loads(capsys.readouterr().out)

        args = run_flags_parser(kind).parse_args(argv)
        spec = spec_from_args(kind, args)
        api_doc = api.run(spec).to_dict()
        # Wall-clock fields (timers, numeric gflops) vary run to run;
        # the configuration identity and the model fields must not.
        assert cli_doc["spec"] == api_doc["spec"]
        assert cli_doc["spec_hash"] == api_doc["spec_hash"]
        assert cli_doc["kind"] == api_doc["kind"]

    @pytest.mark.parametrize("kind,argv,expect", [
        ("native", ["--n", "3000", "--nb", "200", "--scheduler", "static"],
         {"nb": 200, "scheduler": "static"}),
        ("native", ["--n", "100", "--numeric", "--workers", "2"],
         {"numeric": True, "workers": 2}),
        ("hybrid", ["--n", "30000", "--cards", "2", "--lookahead", "basic"],
         {"cards": 2, "lookahead": "basic"}),
        ("hybrid", ["--n", "30000", "--machine", "knc-1card-128gb"],
         {"machine": "knc-1card-128gb", "mem_gb": 128.0}),
        ("distributed", ["--n", "64", "--lookahead", "--bcast-algo", "ring"],
         {"lookahead": "on", "bcast_algo": "ring"}),
        ("distributed", ["--n", "64", "--checkpoint-every", "2",
                         "--retry-max", "1", "--comm-timeout", "0.5"],
         {"checkpoint_every": 2, "retry_max": 1, "comm_timeout": 0.5}),
    ])
    def test_flags_map_onto_spec_fields(self, kind, argv, expect):
        args = run_flags_parser(kind).parse_args(argv)
        spec = spec_from_args(kind, args).normalized()
        for field, value in expect.items():
            assert getattr(spec, field) == value

    def test_removed_pack_cache_switch_is_rejected(self):
        # The retired flag was spelled from its RunSpec field.
        field = "pack_cache"
        with pytest.raises(SystemExit) as exc:
            main(["native", "--n", "64", "--nb", "16", "--numeric",
                  "--no-" + field.replace("_", "-")])
        assert exc.value.code == 2
        with pytest.raises(ValueError, match=field):
            RunSpec.from_dict({"kind": "native", "n": 100, field: True})

    def test_flag_table_covers_historical_defaults(self):
        native = spec_from_args(
            "native", run_flags_parser("native").parse_args(["--n", "1000"])
        ).normalized()
        assert native.nb == 300 and native.scheduler == "dynamic"
        dist = spec_from_args(
            "distributed", run_flags_parser("distributed").parse_args([])
        ).normalized()
        assert (dist.n, dist.nb, dist.p, dist.q) == (144, 16, 2, 2)
        assert dist.bcast_algo == "star" and dist.lookahead == "off"
