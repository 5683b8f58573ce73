"""RunSpec: validation, normalization, canonical hashing, round-trips."""


import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spec import (
    BCAST_ALGOS,
    HYBRID_LOOKAHEADS,
    RunSpec,
    parse_grid,
)


class TestValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            RunSpec(kind="gpu", n=1000)

    def test_nonpositive_n_rejected(self):
        with pytest.raises(ValueError, match="n must be"):
            RunSpec(kind="native", n=0)

    def test_bad_nb_rejected(self):
        with pytest.raises(ValueError, match="nb"):
            RunSpec(kind="native", n=1000, nb=0)

    def test_native_rejects_lookahead(self):
        with pytest.raises(ValueError, match="look-ahead"):
            RunSpec(kind="native", n=1000, lookahead="pipelined")

    def test_native_rejects_grid(self):
        with pytest.raises(ValueError, match="single-card"):
            RunSpec(kind="native", n=1000, p=2, q=2)

    def test_scheduler_is_native_only(self):
        with pytest.raises(ValueError, match="scheduler"):
            RunSpec(kind="hybrid", n=1000, scheduler="static")

    def test_bcast_algo_is_distributed_only(self):
        with pytest.raises(ValueError, match="distributed runs only"):
            RunSpec(kind="hybrid", n=1000, bcast_algo="ring")

    def test_distributed_rejects_numeric(self):
        with pytest.raises(ValueError, match="numeric"):
            RunSpec(kind="distributed", n=64, numeric=True)

    def test_distributed_rejects_hybrid_lookahead_mode(self):
        with pytest.raises(ValueError, match="lookahead"):
            RunSpec(kind="distributed", n=64, lookahead="pipelined")

    def test_unknown_machine_profile_rejected(self):
        with pytest.raises(ValueError, match="machine profile"):
            RunSpec(kind="hybrid", n=1000, machine="cray-1")

    def test_machine_profile_is_hybrid_only(self):
        with pytest.raises(ValueError, match="hybrid"):
            RunSpec(kind="native", n=1000, machine="knc-1card-64gb")


class TestNormalization:
    def test_native_nb_default(self):
        assert RunSpec(kind="native", n=1000).normalized().nb == 300

    def test_distributed_defaults(self):
        s = RunSpec(kind="distributed", n=64).normalized()
        assert s.nb == 16 and s.lookahead == "off"

    def test_hybrid_nb_depends_on_numeric(self):
        assert RunSpec(kind="hybrid", n=30000).normalized().nb == 1200
        assert RunSpec(kind="hybrid", n=256, numeric=True).normalized().nb == 64

    def test_hybrid_lookahead_default(self):
        assert RunSpec(kind="hybrid", n=30000).normalized().lookahead == "pipelined"

    def test_machine_profile_pins_cards_and_memory(self):
        s = RunSpec(kind="hybrid", n=30000, machine="knc-2card-64gb").normalized()
        assert s.cards == 2 and s.mem_gb == 64.0

    def test_numeric_hybrid_collapses_grid(self):
        s = RunSpec(kind="hybrid", n=256, numeric=True, p=2, q=2).normalized()
        assert (s.p, s.q) == (1, 1)

    def test_idempotent(self):
        s = RunSpec(kind="hybrid", n=30000, machine="knc-1card-128gb").normalized()
        assert s.normalized() == s


class TestHashing:
    def test_explicit_default_and_omitted_default_hash_identically(self):
        assert (RunSpec(kind="native", n=1000).canonical_hash()
                == RunSpec(kind="native", n=1000, nb=300).canonical_hash())

    def test_machine_shorthand_hashes_like_explicit_fields(self):
        assert (RunSpec(kind="hybrid", n=30000, machine="knc-2card-64gb")
                .canonical_hash()
                != RunSpec(kind="hybrid", n=30000).canonical_hash())

    def test_hash_stable_under_key_reordering(self):
        d = RunSpec(kind="distributed", n=64, bcast_algo="ring").to_dict()
        reordered = dict(reversed(list(d.items())))
        assert (RunSpec.from_dict(reordered).canonical_hash()
                == RunSpec.from_dict(d).canonical_hash())

    def test_different_knobs_hash_differently(self):
        a = RunSpec(kind="distributed", n=64, bcast_algo="ring")
        b = RunSpec(kind="distributed", n=64, bcast_algo="star")
        assert a.canonical_hash() != b.canonical_hash()

    def test_hash_is_json_of_normalized_dict(self):
        s = RunSpec(kind="native", n=2000)
        blob = json.dumps(s.to_dict(), sort_keys=True, separators=(",", ":"))
        import hashlib

        assert s.canonical_hash() == hashlib.sha256(blob.encode()).hexdigest()[:16]


class TestRoundTrips:
    def test_to_dict_from_dict_round_trip(self):
        s = RunSpec(kind="distributed", n=64, nb=8, p=2, q=2,
                    bcast_algo="ring-mod", lookahead="on", chunk_kb=64.0)
        assert RunSpec.from_dict(s.to_dict()) == s.normalized()

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown RunSpec keys"):
            RunSpec.from_dict({"kind": "native", "n": 100, "warp": 9})
        # The retired arena switch is just another unknown key.
        with pytest.raises(ValueError, match="buffer_pool"):
            RunSpec.from_dict({"kind": "native", "n": 100, "buffer_pool": False})

    def test_from_dict_requires_kind_and_n(self):
        with pytest.raises(ValueError, match="kind"):
            RunSpec.from_dict({"n": 100})

    def test_yaml_boolean_lookahead_coerced(self):
        s = RunSpec.from_dict({"kind": "distributed", "n": 64, "lookahead": True})
        assert s.lookahead == "on"

    def test_with_overrides_grid_pseudo_field(self):
        s = RunSpec(kind="distributed", n=64).with_overrides({"grid": "2x4"})
        assert (s.p, s.q) == (2, 4)

    def test_with_overrides_rejects_unknown(self):
        with pytest.raises(ValueError, match="override"):
            RunSpec(kind="native", n=100).with_overrides({"blocksize": 3})

    def test_summary_names_the_run(self):
        text = RunSpec(kind="distributed", n=64, p=2, q=2).summary()
        assert "distributed" in text and "n=64" in text and "2x2" in text


class TestParseGrid:
    def test_string_and_pair(self):
        assert parse_grid("2x4") == (2, 4)
        assert parse_grid([3, 5]) == (3, 5)
        assert parse_grid((1, 1)) == (1, 1)

    def test_bad_values(self):
        with pytest.raises(ValueError):
            parse_grid("2by4")
        with pytest.raises(ValueError):
            parse_grid(7)


class TestExecutorField:
    def test_default_is_thread(self):
        assert RunSpec(kind="native", n=8).executor == "thread"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="executor"):
            RunSpec(kind="native", n=8, executor="mpi")

    def test_backend_changes_the_hash(self):
        thread = RunSpec(kind="native", n=8).canonical_hash()
        process = RunSpec(kind="native", n=8, executor="process").canonical_hash()
        assert thread != process

    def test_executor_flag_parses_for_every_kind(self):
        from repro.spec import run_flags_parser, spec_from_args

        for kind, extra in (
            ("native", ["--n", "8"]),
            ("hybrid", ["--n", "8"]),
            ("distributed", []),
        ):
            parser = run_flags_parser(kind)
            args = parser.parse_args(extra + ["--executor", "process"])
            assert spec_from_args(kind, args).executor == "process"
            args = parser.parse_args(extra)
            assert spec_from_args(kind, args).executor == "thread"


# Strategy: generate valid per-kind field combinations.
_native = st.builds(
    RunSpec,
    kind=st.just("native"),
    n=st.integers(1, 10**6),
    nb=st.one_of(st.none(), st.integers(1, 2400)),
    scheduler=st.sampled_from(["dynamic", "static"]),
    numeric=st.booleans(),
    seed=st.integers(0, 99),
)
_hybrid = st.builds(
    RunSpec,
    kind=st.just("hybrid"),
    n=st.integers(1, 10**6),
    nb=st.one_of(st.none(), st.integers(1, 2400)),
    p=st.integers(1, 4),
    q=st.integers(1, 4),
    cards=st.integers(1, 2),
    mem_gb=st.sampled_from([64.0, 128.0]),
    lookahead=st.one_of(st.none(), st.sampled_from(HYBRID_LOOKAHEADS)),
    numeric=st.booleans(),
    seed=st.integers(0, 99),
)
_distributed = st.builds(
    RunSpec,
    kind=st.just("distributed"),
    n=st.integers(1, 10**4),
    nb=st.one_of(st.none(), st.integers(1, 64)),
    p=st.integers(1, 4),
    q=st.integers(1, 4),
    bcast_algo=st.sampled_from(BCAST_ALGOS),
    lookahead=st.one_of(st.none(), st.sampled_from(["on", "off"])),
    chunk_kb=st.one_of(st.none(), st.floats(1.0, 1024.0)),
    seed=st.integers(0, 99),
)
_any_spec = st.one_of(_native, _hybrid, _distributed)


class TestFuzzedRoundTrips:
    @settings(max_examples=200, deadline=None)
    @given(_any_spec)
    def test_dict_round_trip_preserves_identity(self, spec):
        rebuilt = RunSpec.from_dict(spec.to_dict())
        assert rebuilt == spec.normalized()
        assert rebuilt.canonical_hash() == spec.canonical_hash()

    @settings(max_examples=200, deadline=None)
    @given(_any_spec)
    def test_hash_ignores_dict_key_order(self, spec):
        d = spec.to_dict()
        shuffled = dict(sorted(d.items(), key=lambda kv: kv[0], reverse=True))
        assert RunSpec.from_dict(shuffled).canonical_hash() == spec.canonical_hash()

    @settings(max_examples=200, deadline=None)
    @given(_any_spec)
    def test_normalization_is_idempotent(self, spec):
        once = spec.normalized()
        assert once.normalized() == once
        # to_dict is JSON-ready (tuples become lists), so compare dicts
        # through it on both sides rather than raw asdict.
        assert once.to_dict() == spec.to_dict()


class TestRegridField:
    def test_regrid_is_distributed_only(self):
        with pytest.raises(ValueError, match="distributed"):
            RunSpec(kind="native", n=2000, regrid=("panel=3:2x4",))
        with pytest.raises(ValueError, match="distributed"):
            RunSpec(kind="hybrid", n=8000, on_rank_death="shrink")

    def test_bad_regrid_entry_rejected(self):
        with pytest.raises(ValueError, match="regrid"):
            RunSpec(kind="distributed", n=4000, regrid=("panel=x:2x4",))

    def test_bad_on_rank_death_rejected(self):
        with pytest.raises(ValueError, match="on_rank_death"):
            RunSpec(kind="distributed", n=4000, on_rank_death="panic")

    def test_regrid_changes_the_hash(self):
        plain = RunSpec(kind="distributed", n=4000)
        elastic = RunSpec(kind="distributed", n=4000, regrid=("panel=3:2x4",))
        shrink = RunSpec(kind="distributed", n=4000, on_rank_death="shrink")
        assert plain.canonical_hash() != elastic.canonical_hash()
        assert plain.canonical_hash() != shrink.canonical_hash()

    def test_equivalent_spellings_hash_identically(self):
        a = RunSpec(kind="distributed", n=4000, regrid=("panel=3:2x4",))
        b = RunSpec(kind="distributed", n=4000, regrid=(" PANEL=3:2X4 ",))
        assert a.canonical_hash() == b.canonical_hash()
        assert a.normalized().regrid == ("panel=3:2x4",)

    def test_regrid_round_trips_as_tuple(self):
        spec = RunSpec(kind="distributed", n=4000,
                       regrid=("panel=3:2x4", "panel=5:1x2"),
                       on_rank_death="shrink")
        rebuilt = RunSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert rebuilt.regrid == spec.normalized().regrid
        assert isinstance(rebuilt.regrid, tuple)
        assert rebuilt.on_rank_death == "shrink"

    def test_summary_names_the_schedule(self):
        spec = RunSpec(kind="distributed", n=4000,
                       regrid=("panel=3:2x4",), on_rank_death="shrink")
        s = spec.summary()
        assert "panel=3:2x4" in s and "shrink" in s
