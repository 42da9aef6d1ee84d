import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import benchpursuit as bp
from benchpursuit import BenchmarkSpec, DataMatrix
from benchpursuit.benchmarks import GENERATORS
from benchpursuit.errors import (
    ConfigError,
    DimensionMismatch,
    EmptyPartition,
    UnknownColumn,
)
from oracles import lcg_closed_form

RANDU_MODULUS = 2**31
MINSTD_MODULUS = 2**31 - 1


class TestLcgCore:
    def test_randu_first_values(self):
        x = bp.lcg_triplets("randu", seed=1, n=1)
        assert x.values[0].tolist() == [v / RANDU_MODULUS for v in (65539, 393225, 1769499)]

    def test_minstd_first_values(self):
        x = bp.lcg_triplets("minstd", seed=1, n=1)
        expected = [v / MINSTD_MODULUS for v in (16807, 282475249, 1622650073)]
        assert x.values[0].tolist() == expected

    def test_generator_table(self):
        assert GENERATORS["randu"] == (RANDU_MODULUS, 65539)
        assert GENERATORS["minstd"] == (MINSTD_MODULUS, 16807)

    def test_matches_closed_form_oracle(self):
        """Spot-check draws against modular exponentiation."""
        for name, (modulus, mult) in GENERATORS.items():
            draws = bp.lcg_triplets(name, seed=1, n=67).values.ravel()
            for step in range(1, 201):
                expected = lcg_closed_form(mult, modulus, 1, step) / modulus
                assert draws[step - 1] == expected, (name, step)

    @given(st.sampled_from(sorted(GENERATORS)), st.data(), st.integers(1, 50))
    @settings(max_examples=25, deadline=None)
    def test_any_seed_matches_closed_form_oracle(self, name, data, n):
        """Entry (r, c) is draw 3r + c + 1 over the modulus, for any valid seed."""
        modulus, mult = GENERATORS[name]
        seed = data.draw(st.integers(1, modulus - 1), label="seed")
        x = bp.lcg_triplets(name, seed=seed, n=n)
        expected = [
            [lcg_closed_form(mult, modulus, seed, 3 * r + c + 1) / modulus for c in range(3)]
            for r in range(n)
        ]
        assert x.values.tolist() == expected

    def test_unknown_generator(self):
        with pytest.raises(ConfigError):
            bp.lcg_triplets("mersenne", seed=1, n=1)

    def test_seed_range_validation(self):
        with pytest.raises(ValueError):
            bp.lcg_triplets("randu", seed=0, n=1)
        with pytest.raises(ValueError):
            bp.lcg_triplets("randu", seed=RANDU_MODULUS, n=1)
        with pytest.raises(ValueError):
            bp.lcg_triplets("minstd", seed=MINSTD_MODULUS, n=1)


class TestLcgTriplets:
    def test_shape_and_names(self):
        x = bp.lcg_triplets("randu", seed=1, n=10)
        assert x.n == 10 and x.p == 3
        assert x.column_names == ("x1", "x2", "x3")

    def test_values_are_consecutive_scaled(self):
        """Row r holds draws 3r+1, 3r+2, 3r+3 divided by the modulus."""
        x = bp.lcg_triplets("randu", seed=1, n=2)
        state, raw = 1, []
        for _ in range(6):
            state = 65539 * state % RANDU_MODULUS
            raw.append(state)
        expected = np.array(raw, dtype=np.int64).reshape(2, 3) / RANDU_MODULUS
        assert np.array_equal(x.values, expected)

    def test_unit_interval(self):
        x = bp.lcg_triplets("minstd", seed=7, n=200)
        assert x.values.min() > 0.0 and x.values.max() < 1.0

    def test_randu_lattice_identity(self):
        """Every RANDU triple sits on x3 = 6 x2 - 9 x1 (mod 1) after the
        modulus division — the identity behind the 15-plane defect."""
        x = bp.lcg_triplets("randu", seed=1, n=400)
        resid = (6.0 * x.values[:, 1] - 9.0 * x.values[:, 0] - x.values[:, 2]) % 1.0
        resid = np.minimum(resid, 1.0 - resid)
        assert resid.max() < 1e-9

    def test_minstd_has_no_randu_lattice(self):
        y = bp.lcg_triplets("minstd", seed=1, n=400)
        resid = (6.0 * y.values[:, 1] - 9.0 * y.values[:, 0] - y.values[:, 2]) % 1.0
        resid = np.minimum(resid, 1.0 - resid)
        assert resid.max() > 0.01

    def test_n_validation(self):
        with pytest.raises(ValueError):
            bp.lcg_triplets("randu", seed=1, n=0)


class TestPermutationBenchmark:
    def test_marginals_preserved(self, rng):
        x = DataMatrix(rng.standard_normal((40, 3)), ("a", "b", "c"))
        y = bp.permutation_benchmark(x, seed=3)
        for j in range(3):
            assert np.array_equal(np.sort(y.values[:, j]), np.sort(x.values[:, j]))

    def test_joint_structure_destroyed(self, rng):
        base = rng.standard_normal(200)
        x = DataMatrix(np.column_stack([base, base]), ("a", "b"))
        y = bp.permutation_benchmark(x, seed=5)
        corr = np.corrcoef(y.values[:, 0], y.values[:, 1])[0, 1]
        assert abs(corr) < 0.35

    def test_deterministic(self, rng):
        x = DataMatrix(rng.standard_normal((25, 2)), ("a", "b"))
        a = bp.permutation_benchmark(x, seed=11)
        b = bp.permutation_benchmark(x, seed=11)
        assert np.array_equal(a.values, b.values)

    def test_labels_dropped(self, rng):
        x = DataMatrix(
            rng.standard_normal((6, 2)), ("a", "b"), row_labels=tuple("uvwxyz"), label_name="g"
        )
        y = bp.permutation_benchmark(x, seed=0)
        assert y.row_labels is None


class TestClassSplit:
    def _labeled(self):
        vals = np.arange(12.0).reshape(6, 2)
        return DataMatrix(
            vals, ("a", "b"), row_labels=("t", "n", "t", "n", "n", "t"), label_name="tissue"
        )

    def test_partition(self):
        x = self._labeled()
        level, rest = bp.class_split(x, "tissue", "t")
        assert level.n == 3 and rest.n == 3
        assert level.row_labels == ("t", "t", "t")
        assert rest.row_labels == ("n", "n", "n")
        assert np.array_equal(level.values, x.values[[0, 2, 5]])

    def test_unknown_column(self):
        with pytest.raises(UnknownColumn):
            bp.class_split(self._labeled(), "group", "t")

    def test_missing_level(self):
        with pytest.raises(EmptyPartition):
            bp.class_split(self._labeled(), "tissue", "q")

    def test_all_rows_in_level(self):
        x = DataMatrix(
            np.zeros((3, 2)), ("a", "b"), row_labels=("t", "t", "t"), label_name="tissue"
        )
        with pytest.raises(EmptyPartition):
            bp.class_split(x, "tissue", "t")


class TestBenchmarkSpec:
    def test_roundtrip(self):
        spec = BenchmarkSpec(kind="lcg", generator="randu", seed=1, n_rows=400)
        again = BenchmarkSpec.from_dict(spec.to_dict())
        assert again == spec

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            BenchmarkSpec(kind="bootstrap")

    def test_unknown_field(self):
        with pytest.raises(ConfigError):
            BenchmarkSpec.from_dict({"kind": "permutation", "seed": 0, "oops": 1})

    @pytest.mark.parametrize(
        "raw",
        [
            {"kind": "permutation", "seed": True},
            {"kind": "permutation", "seed": 7.5},
            {"kind": "permutation", "seed": "7"},
            {"kind": "lcg", "generator": "randu", "seed": 1, "n_rows": 2.5},
            {"kind": "lcg", "generator": "randu", "seed": 1, "n_rows": False},
            {"kind": "class_split", "label_column": "tissue", "level": 3},
            {"kind": 1},
        ],
    )
    def test_scalar_of_wrong_json_type_rejected(self, raw):
        with pytest.raises(ConfigError, match="BenchmarkSpec field"):
            BenchmarkSpec.from_dict(raw)

    @pytest.mark.parametrize("raw", [{}, {"seed": 3}, ["permutation"], "lcg"])
    def test_missing_kind_or_not_an_object(self, raw):
        with pytest.raises(ConfigError):
            BenchmarkSpec.from_dict(raw)

    def test_null_optional_field_accepted(self):
        spec = BenchmarkSpec.from_dict({"kind": "lcg", "generator": "randu", "seed": 1,
                                        "n_rows": None})
        assert spec.n_rows is None

    @pytest.mark.parametrize(
        "fields",
        [
            {"kind": "lcg", "generator": "randu", "seed": 0},
            {"kind": "lcg", "generator": "randu", "seed": RANDU_MODULUS},
            {"kind": "lcg", "generator": "MINSTD", "seed": MINSTD_MODULUS},
            {"kind": "permutation", "seed": -1},
        ],
    )
    def test_seed_out_of_range(self, fields):
        with pytest.raises(ConfigError, match="seed must be"):
            BenchmarkSpec(**fields)

    def test_seed_range_ends_accepted(self):
        BenchmarkSpec(kind="lcg", generator="randu", seed=RANDU_MODULUS - 1)
        BenchmarkSpec(kind="lcg", generator="minstd", seed=MINSTD_MODULUS - 1)
        BenchmarkSpec(kind="permutation", seed=0)

    def test_missing_requirements(self):
        with pytest.raises(ConfigError):
            BenchmarkSpec(kind="external")
        with pytest.raises(ConfigError):
            BenchmarkSpec(kind="class_split", label_column="g")


class TestBuildBenchmark:
    def test_permutation_kind(self, rng):
        x = DataMatrix(rng.standard_normal((10, 2)), ("a", "b"))
        data, y = bp.build_benchmark(BenchmarkSpec(kind="permutation", seed=4), x)
        assert data is x
        assert np.array_equal(np.sort(y.values[:, 0]), np.sort(x.values[:, 0]))

    def test_lcg_kind_requires_three_columns(self, rng):
        x = DataMatrix(rng.standard_normal((10, 2)), ("a", "b"))
        with pytest.raises(DimensionMismatch):
            bp.build_benchmark(BenchmarkSpec(kind="lcg", generator="randu", seed=1), x)

    def test_lcg_kind_row_default(self):
        x = bp.lcg_triplets("randu", seed=1, n=13)
        _, y = bp.build_benchmark(BenchmarkSpec(kind="lcg", generator="minstd", seed=1), x)
        assert y.n == 13

    def test_external_kind_checks_columns(self, rng, tmp_path):
        from benchpursuit.dataio import write_csv

        x = DataMatrix(rng.standard_normal((5, 3)), ("a", "b", "c"))
        narrow = DataMatrix(rng.standard_normal((4, 2)), ("a", "b"))
        path = tmp_path / "bench.csv"
        write_csv(narrow, path)
        with pytest.raises(DimensionMismatch):
            bp.build_benchmark(BenchmarkSpec(kind="external", path=str(path)), x)

    def test_class_split_kind(self):
        x = DataMatrix(
            np.arange(8.0).reshape(4, 2),
            ("a", "b"),
            row_labels=("t", "n", "t", "n"),
            label_name="tissue",
        )
        data, y = bp.build_benchmark(
            BenchmarkSpec(kind="class_split", label_column="tissue", level="n"), x
        )
        assert data.n == 2 and y.n == 2
        assert data.row_labels == ("n", "n")
