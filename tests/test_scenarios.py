"""Tests for the scenario constructors and probability tables."""

import math
import re

import numpy as np
import pytest

from pbrcheck import (
    DomainError,
    PREPARATIONS,
    ProbabilityTable,
    XI_LABELS,
    ZERO_PAIRING,
    born_distribution,
    ket,
    mz_joint_state,
    mz_normalization_sq,
    mz_preparation_state,
    pbr_target_rows,
    product_preparation,
    theta_pair,
    theta_table,
    xi_basis,
    zero_outcome_table,
)

from pbrcheck.report import ReportDocument
from pbrcheck.scenarios import mz_scenario, pbr_scenario

import oracles

SQRT2 = math.sqrt(2.0)


# --- kets and preparations ---


@pytest.mark.parametrize(
    ("label", "expected"),
    [
        ("0", [1, 0]),
        ("1", [0, 1]),
        ("+", [1 / SQRT2, 1 / SQRT2]),
        ("-", [1 / SQRT2, -1 / SQRT2]),
    ],
)
def test_ket_values(label, expected):
    np.testing.assert_allclose(ket(label), expected, atol=1e-15)


def test_ket_unknown_label():
    with pytest.raises(DomainError):
        ket("x")


@pytest.mark.parametrize(
    ("label", "expected"),
    [
        ("00", [1, 0, 0, 0]),
        ("+0", [1 / SQRT2, 0, 1 / SQRT2, 0]),
        ("++", [0.5, 0.5, 0.5, 0.5]),
    ],
)
def test_product_preparations(label, expected):
    np.testing.assert_allclose(product_preparation(label), expected, atol=1e-15)


def test_product_preparation_rejects_bad_label():
    with pytest.raises(DomainError):
        product_preparation("01")


# --- the entangled measurement ---


class TestXiBasis:
    def test_vectors_match_hand_expansion(self):
        basis = xi_basis()
        np.testing.assert_allclose(basis.outcomes, oracles.XI_VECTORS, atol=1e-15)

    def test_gram_is_identity(self):
        gram = xi_basis().gram()
        assert np.max(np.abs(gram - np.eye(4))) <= 1e-10

    def test_specific_gram_entries(self):
        basis = xi_basis()
        gram = basis.gram()
        assert abs(gram[1, 2]) <= 1e-12          # <xi2|xi3> = 0
        assert abs(gram[3, 3] - 1.0) <= 1e-12    # <xi4|xi4> = 1


# --- the zero-outcome table ---


class TestZeroOutcomeTable:
    def test_rows_match_brute_force_oracle(self):
        table = zero_outcome_table()
        for i, label in enumerate(PREPARATIONS):
            by_hand = oracles.born_row(product_preparation(label), oracles.XI_VECTORS)
            np.testing.assert_allclose(table.probabilities[i], by_hand, atol=1e-12)
            np.testing.assert_allclose(
                table.probabilities[i], oracles.PRODUCT_BORN_ROWS[i], atol=1e-12
            )

    def test_zero_pattern_is_exactly_the_pairing(self):
        table = zero_outcome_table()
        expected = np.zeros((4, 4), dtype=bool)
        for row, col in ZERO_PAIRING:
            expected[row, col] = True
        np.testing.assert_array_equal(table.zero_flags, expected)

    def test_paired_cells_are_zero_and_rest_substantial(self):
        probs = zero_outcome_table().probabilities
        for row, col in ZERO_PAIRING:
            assert probs[row, col] <= 1e-12
        off = probs[~np.eye(4, dtype=bool)]
        assert np.all(off > 1e-3)

    def test_row_sums(self):
        np.testing.assert_allclose(zero_outcome_table().row_sums(), 1.0, atol=1e-9)

    def test_target_rows_match_table(self):
        np.testing.assert_array_equal(pbr_target_rows(), zero_outcome_table().probabilities)


# --- the tunable pair ---


class TestThetaPair:
    @pytest.mark.parametrize(
        ("theta", "expected"),
        [(math.pi / 2, 0.0), (math.pi / 3, 0.5), (1e-9, math.cos(1e-9))],
    )
    def test_overlap_values(self, theta, expected):
        assert abs(theta_pair(theta).overlap - expected) <= 1e-12

    def test_overlap_equals_cos_theta_over_sweep(self):
        for theta in np.linspace(0.01, math.pi - 0.01, 100):
            pair = theta_pair(float(theta))
            assert abs(pair.overlap - math.cos(theta)) <= 1e-12

    def test_states_are_unit_norm(self):
        pair = theta_pair(1.2345)
        assert abs(np.linalg.norm(pair.psi0) - 1.0) <= 1e-12
        assert abs(np.linalg.norm(pair.psi1) - 1.0) <= 1e-12

    @pytest.mark.parametrize("theta", [0.0, math.pi, -0.3, 4.0, float("nan")])
    def test_domain(self, theta):
        with pytest.raises(DomainError):
            theta_pair(theta)

    def test_table_rows_sum_to_one(self):
        table = theta_table(theta_pair(math.pi / 2))
        np.testing.assert_allclose(table.row_sums(), 1.0, atol=1e-9)
        assert table.row_labels == ("psi0*psi0", "psi0*psi1", "psi1*psi0", "psi1*psi1")


# --- the which-way-free preparation ---


class TestMachZehnder:
    def test_normalization_constant(self):
        assert abs(mz_normalization_sq() - oracles.MZ_NORMALIZATION_SQ) <= 1e-12

    def test_state_is_bloch_bisector(self):
        """normalize(|0> + |+>) = cos(pi/8)|0> + sin(pi/8)|1>."""
        psi = mz_preparation_state()
        np.testing.assert_allclose(
            psi, [math.cos(math.pi / 8), math.sin(math.pi / 8)], atol=1e-12
        )

    def test_amplitude_on_zero(self):
        psi = mz_preparation_state()
        n = math.sqrt(mz_normalization_sq())
        assert abs(psi[0] - n * (1 + 1 / SQRT2)) <= 1e-12

    def test_joint_state_norm(self):
        assert abs(np.linalg.norm(mz_joint_state()) - 1.0) <= 1e-12

    def test_joint_born_row_is_uniform(self):
        """All four outcome probabilities equal 1/4 (brute-force verified)."""
        joint_state = mz_joint_state()
        by_hand = oracles.born_row(joint_state, oracles.XI_VECTORS)
        np.testing.assert_allclose(by_hand, 0.25, atol=1e-12)
        np.testing.assert_allclose(
            born_distribution(joint_state, xi_basis()), by_hand, atol=1e-14
        )

    def test_first_outcome_analytic_cross_check(self):
        """|sqrt(2) cos(pi/8) sin(pi/8)|^2 = 1/4."""
        amp = SQRT2 * math.cos(math.pi / 8) * math.sin(math.pi / 8)
        assert abs(amp**2 - 0.25) <= 1e-12


# --- scenario descriptions ---


class TestScenario:
    def test_pbr_labels_are_the_zero_outcome_rows(self):
        assert pbr_scenario().labels == zero_outcome_table().row_labels

    def test_pbr_targets_are_the_born_rows(self):
        np.testing.assert_array_equal(pbr_scenario().targets, pbr_target_rows())

    def test_pbr_wires_0_to_the_first_and_plus_to_the_second_distribution(self):
        a, b = object(), object()
        by_char = {"0": a, "+": b}
        pairs = pbr_scenario().device_pairs(a, b)
        assert len(pairs) == len(PREPARATIONS)
        for (first, second), label in zip(pairs, PREPARATIONS):
            assert first is by_char[label[0]] and second is by_char[label[1]]

    def test_pbr_zero_pairing(self):
        assert pbr_scenario().zero_pairing == ZERO_PAIRING

    def test_mz_is_one_device_used_twice(self):
        scenario = mz_scenario()
        mu = object()
        assert len(scenario.labels) == 1
        assert scenario.device_pairs(mu) == [(mu, mu)]
        assert scenario.zero_pairing == ()
        np.testing.assert_array_equal(scenario.targets, [born_distribution(mz_joint_state(), xi_basis())])


# --- compatibility reports ---


class TestCompatibility:
    @staticmethod
    def table(state) -> ProbabilityTable:
        """The one-row xi-basis table of ``state``."""
        return ProbabilityTable(("Psi",), XI_LABELS, [born_distribution(state, xi_basis())])

    def test_mz_joint_is_compatible(self):
        report = self.table(mz_joint_state())
        assert report.compatible
        assert not report.zero_flags.any()

    def test_announced_product_state_is_not(self):
        report = self.table(product_preparation("00"))
        assert not report.compatible
        np.testing.assert_array_equal(report.zero_flags, [[True, False, False, False]])

    def test_basis_eigenstate_row(self):
        xi2 = xi_basis().outcomes[1]
        report = self.table(xi2)
        np.testing.assert_allclose(report.probabilities, [[0, 1, 0, 0]], atol=1e-12)
        assert not report.compatible


# --- table plumbing ---


class TestProbabilityTable:
    def test_round_trip(self):
        table = zero_outcome_table()
        rebuilt = ProbabilityTable.from_dict(table.to_dict())
        np.testing.assert_array_equal(rebuilt.probabilities, table.probabilities)
        assert rebuilt.row_labels == table.row_labels
        assert rebuilt.column_labels == XI_LABELS

    def test_from_dict_rejects_tampered_flags(self):
        payload = zero_outcome_table().to_dict()
        payload["zero_flags"][0][0] = False
        with pytest.raises(DomainError):
            ProbabilityTable.from_dict(payload)

    @pytest.mark.parametrize("row_sums", [[1.0], 1.0], ids=["truncated", "scalar"])
    def test_from_dict_rejects_row_sums_of_another_shape(self, row_sums):
        """Both rows sum to exactly 1.0, so only the shape gives these row_sums away."""
        payload = ProbabilityTable(("a", "b"), ("x", "y"), np.array([[0.5, 0.5], [0.25, 0.75]])).to_dict()
        assert payload["row_sums"] == [1.0, 1.0]
        payload["row_sums"] = row_sums
        with pytest.raises(DomainError, match="row_sums"):
            ProbabilityTable.from_dict(payload)

    @pytest.mark.parametrize(
        ("rows", "columns", "title", "message"),
        [
            ("ab", ("x", "y"), "", "row_labels must be a list or tuple of str, got 'ab'"),
            (("a", "b"), "xy", "", "column_labels must be a list or tuple of str, got 'xy'"),
            (("a", 1), ("x", "y"), "", "row_labels must be a list or tuple of str, got ('a', 1)"),
            (("a", "b"), ("x", "y"), 5, "title must be a str, got 5"),
        ],
        ids=["str-rows", "str-columns", "int-label", "int-title"],
    )
    def test_labels_and_title_are_refused_not_coerced(self, rows, columns, title, message):
        with pytest.raises(DomainError, match=re.escape(message)):
            ProbabilityTable(rows, columns, np.eye(2), title=title)

    @pytest.mark.parametrize(
        ("key", "value", "message"),
        [
            ("title", 5, "title must be a str, got 5"),
            ("row_labels", "abcd", "row_labels must be a list, got 'abcd'"),
            ("zero_flags", None, "document has no 'zero_flags'"),
            ("zero_flags", np.eye(4, dtype=int).tolist(), "zero_flags must be a list of lists of bool, got [[1, 0,"),
            ("zero_flags", np.eye(4).tolist(), "zero_flags must be a list of lists of bool, got [[1.0, 0.0,"),
            ("row_sums", [True] * 4, "row_sums must be a rectangular array of numbers (got bool entries)"),
        ],
        ids=["int-title", "str-row-labels", "no-zero-flags", "int-zero-flags", "float-zero-flags", "bool-row-sums"],
    )
    def test_from_dict_refuses_what_it_would_coerce(self, key, value, message):
        """A value of None drops the key from the payload."""
        payload = zero_outcome_table().to_dict()
        if value is None:
            del payload[key]
        else:
            payload[key] = value
        with pytest.raises(DomainError, match=re.escape(message)):
            ProbabilityTable.from_dict(payload)

    @pytest.mark.parametrize(
        ("text", "message"),
        [
            ('{"scenario": "pbr", "tables": [], "verdicts": "ab", "metadata": {}, "extras": {}}',
             "verdicts must be a list, got 'ab'"),
            ('{"scenario": "pbr", "tables": [], "verdicts": [], "metadata": {}}', "document has no 'extras'"),
            ("[]", "document has no 'scenario'"),
            ('{"scenario": "pbr", "tables": [], "verdicts": [5], "metadata": {}, "extras": {}}',
             "document has no 'status'"),
            ('{"scenario": "pbr", "tables": [], "verdicts": [{}], "metadata": {}, "extras": {}}',
             "document has no 'status'"),
            ('{"scenario": "pbr", "tables": [], "verdicts": [{"status": "maybe"}], "metadata": {}, "extras": {}}',
             "status must be 'feasible' or 'infeasible', got 'maybe'"),
            ('{"scenario": "pbr", "tables": [{"title": "", "row_labels": ["a"], "column_labels": ["x", "y"], '
             '"probabilities": [["0.5", "0.5"]], "zero_threshold": 1e-09, "zero_flags": [[false, false]], '
             '"row_sums": [1.0]}], "verdicts": [], "metadata": {}, "extras": {}}',
             "probabilities must be a rectangular array of numbers (got <U3 entries)"),
            ('{"scenario": "pbr", "tables": [], "verdicts": [{"status": "feasible", "max_residual": "abc"}], '
             '"metadata": {}, "extras": {}}', "max_residual must be a real number in [0, inf], got 'abc'"),
            ('{"scenario": "pbr", "tables": [], "verdicts": [{"status": "feasible", "max_residual": "1e-9"}], '
             '"metadata": {}, "extras": {}}', "max_residual must be a real number in [0, inf], got '1e-9'"),
            ('{"scenario": "pbr", "tables": [], "verdicts": [{"status": "feasible", "max_residual": true}], '
             '"metadata": {}, "extras": {}}', "max_residual must be a real number in [0, inf], got True"),
            ('{"scenario": "pbr", "tables": [], "verdicts": [{"status": "infeasible", "violated_constraint": 5}], '
             '"metadata": {}, "extras": {}}', "violated_constraint must be a str, got 5"),
            ('{"scenario": "pbr", "tables": [], "verdicts": [{"status": "feasible", "name": null}], '
             '"metadata": {}, "extras": {}}', "name must be a str, got None"),
            *(
                (f'{{"scenario": "pbr", "tables": [], "verdicts": [{{"status": "feasible", "witness": {witness}}}], '
                 '"metadata": {}, "extras": {}}', message)
                for witness, message in [
                    ('"abc"', "response table must be a rectangular array of numbers (got <U3 entries)"),
                    ("3", "response table must have shape (n, n, outcomes), got ()"),
                    ("[[1]]", "response table must have shape (n, n, outcomes), got (1, 1)"),
                ]
            ),
            ('{"scenario": "pbr", "tables": [], "verdicts": [{"status": "infeasible", "witness": [[[1.0]]]}], '
             '"metadata": {}, "extras": {}}', "infeasible verdict holds a witness"),
            ('{"scenario": "pbr", "tables": [], "verdicts": [{"status": "infeasible", "max_residual": 0.0}], '
             '"metadata": {}, "extras": {}}', "infeasible verdict holds a max_residual"),
            ('{"scenario": "pbr", "tables": [], "verdicts": [{"status": "feasible", "violated_constraint": "x"}], '
             '"metadata": {}, "extras": {}}', "feasible verdict holds a violated_constraint"),
            ('{"scenario": "pbr", "tables": [], "verdicts": [{"status": "feasible", "max_residual": 1e400}], '
             '"metadata": {}, "extras": {}}', "document['verdicts'][0]['max_residual'] must be finite, got inf"),
            ('{"scenario": "pbr", "tables": [], "verdicts": [], "metadata": {"q": -1e400}, "extras": {}}',
             "document['metadata']['q'] must be finite, got -inf"),
            *(
                (f'{{"scenario": "pbr", "tables": [], "verdicts": [], "metadata": {{}}, "extras": {{"x": [{token}]}}}}',
                 f"document holds {token}, which is not JSON")
                for token in ("NaN", "Infinity", "-Infinity")
            ),
        ],
        ids=[
            "str-verdicts",
            "no-extras",
            "not-an-object",
            "int-verdict",
            "verdict-without-status",
            "unknown-status",
            "numeric-string-probabilities",
            "str-max-residual",
            "numeric-string-max-residual",
            "bool-max-residual",
            "int-violated-constraint",
            "null-name",
            "str-witness",
            "int-witness",
            "flat-witness",
            "infeasible-witness",
            "infeasible-max-residual",
            "feasible-violated-constraint",
            "overflowing-max-residual",
            "overflowing-metadata",
            "nan-token",
            "infinity-token",
            "minus-infinity-token",
        ],
    )
    def test_documents_are_refused_not_coerced(self, text, message):
        with pytest.raises(DomainError, match=re.escape(message)):
            ReportDocument.from_json(text)

    @pytest.mark.parametrize("key", ["metadata", "extras"])
    def test_payloads_with_floats_that_are_not_finite_are_refused(self, key):
        payload = {"scenario": "pbr", "tables": [], "verdicts": [], "metadata": {}, "extras": {}}
        payload[key] = {"x": [1.0, {"y": math.nan}]}
        with pytest.raises(DomainError, match=re.escape(f"document[{key!r}]['x'][1]['y'] must be finite, got nan")):
            ReportDocument.from_payload(payload)

    def test_rejects_non_distribution_rows(self):
        with pytest.raises(DomainError):
            ProbabilityTable(("r",), ("a", "b"), np.array([[0.7, 0.7]]))

    def test_display_threshold_changes_flags_only(self):
        loose = zero_outcome_table(zero_threshold=0.3)
        strict = zero_outcome_table()
        np.testing.assert_array_equal(loose.probabilities, strict.probabilities)
        assert loose.zero_flags.sum() > strict.zero_flags.sum()
