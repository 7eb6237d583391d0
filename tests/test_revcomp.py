"""Truth tables, reversible lifts, involution checks, register embedding."""
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvhistory import validation
from cvhistory.errors import DomainError, ResourceLimitError, ValidationError, is_integer
from cvhistory.qubits import apply_permutation, basis_state
from cvhistory.revcomp import (
    MAX_PAIR_BITS,
    MAX_TABLE_BITS,
    ReversiblePermutation,
    SubtractMode,
    TruthTable,
    as_register_permutation,
    build_reversible,
    check_involution,
    eval_forward,
    named_table,
    table_from_dict,
    table_from_json,
)
from dense_reference import ref_register_permutation
from test_erasure import NON_INTEGER_IDS, NON_INTEGER_INDICES

AND = named_table("AND")

# the first non-integer entry of each shared index case, as a scalar
NON_INTEGER_SCALARS = [next(v for v in case if not is_integer(v)) for case in NON_INTEGER_INDICES]

# Each takes one scalar argument, named after the colon in its key.
SCALAR_ARGUMENT_OPS = {
    "TruthTable:x": lambda v: AND(v),
    "eval_forward:x": lambda v: eval_forward(AND, SubtractMode.XOR, v, 0),
    "eval_forward:y": lambda v: eval_forward(AND, SubtractMode.XOR, 1, v),
    "apply:x": lambda v: build_reversible(AND, SubtractMode.XOR).apply(v, 0),
    "apply:y": lambda v: build_reversible(AND, SubtractMode.XOR).apply(1, v),
}


@st.composite
def truth_tables(draw, max_pair_bits=12):
    n_in = draw(st.integers(min_value=0, max_value=6))
    m_out = draw(st.integers(min_value=1, max_value=max(1, max_pair_bits - n_in)))
    outputs = draw(
        st.lists(
            st.integers(min_value=0, max_value=(1 << m_out) - 1),
            min_size=1 << n_in,
            max_size=1 << n_in,
        )
    )
    return TruthTable(n_in, m_out, np.array(outputs))


class TestTruthTable:
    def test_and_values(self):
        assert list(AND.outputs) == [0, 0, 0, 1]
        assert AND(3) == 1 and AND(0) == 0

    def test_or_xor(self):
        assert list(named_table("OR").outputs) == [0, 1, 1, 1]
        assert list(named_table("XOR").outputs) == [0, 1, 1, 0]

    def test_adder(self):
        tt = named_table("ADDER(2)")
        assert tt.n_in == 4 and tt.m_out == 3
        assert tt(0b1110) == 2 + 3  # low bits 2, high bits 3
        assert tt(0b0000) == 0

    def test_const(self):
        tt = named_table("CONST(2,2,3)")
        assert np.all(tt.outputs == 3)
        with pytest.raises(ValidationError):
            named_table("CONST(2,1,3)")

    @pytest.mark.parametrize("name, bits", [("ADDER(7)", 22), ("CONST(20,1,0)", 21), ("CONST(0,21,0)", 21)])
    def test_named_past_pair_bits_refused(self, name, bits):
        with pytest.raises(ValidationError, match=f"pair register of {bits} bits"):
            named_table(name)

    def test_named_at_pair_bits_built(self):
        adder = named_table("ADDER(6)")
        assert adder.n_in + adder.m_out == 19
        assert named_table("CONST(0,20,5)").m_out == 20

    def test_unknown_name(self):
        with pytest.raises(ValidationError):
            named_table("NAND")

    def test_out_of_range_entry_reports_index(self):
        with pytest.raises(ValidationError, match=r"outputs\[2\]"):
            TruthTable(2, 1, np.array([0, 1, 2, 0]))

    def test_wrong_length(self):
        with pytest.raises(ValidationError):
            TruthTable(2, 1, np.array([0, 1]))

    def test_call_range(self):
        with pytest.raises(DomainError):
            AND(4)

    @pytest.mark.parametrize("n_in, m_out", [(MAX_TABLE_BITS + 1, 1), (0, 10**30), (10**30, 10**30)])
    def test_width_past_the_bound_refused(self, n_in, m_out):
        name, width = ("n_in", n_in) if n_in > MAX_TABLE_BITS else ("m_out", m_out)
        with pytest.raises(ValidationError, match=f"^{name} must be at most {MAX_TABLE_BITS}, got {width}$"):
            TruthTable(n_in, m_out, [0])

    @pytest.mark.parametrize(
        "n_in, m_out, field",
        [(1.5, 1, "n_in"), (True, 1, "n_in"), (1, 1.0, "m_out"), (1, False, "m_out")],
    )
    def test_widths_must_be_integers(self, n_in, m_out, field):
        with pytest.raises(ValidationError, match=f"^{field} must be an integer"):
            TruthTable(n_in, m_out, [0, 1])

    def test_widest_table_keeps_its_length_rule(self):
        with pytest.raises(ValidationError, match=f"^outputs must have length 2\\^{MAX_TABLE_BITS} = "):
            TruthTable(MAX_TABLE_BITS, MAX_TABLE_BITS, [0])

    @pytest.mark.parametrize(
        "outputs",
        [[0.5, 0, 0, 1], [0, 0, 0, 1.0], [False, False, False, True], np.array([0.0, 0.0, 0.0, 1.0]),
         np.array([False, False, False, True]), [0, 0, 0, np.bool_(True)], [0, 0, 0, None]],
        ids=["0.5", "1.0", "bools", "float-array", "bool-array", "bool_", "None"],
    )
    def test_outputs_must_be_integers(self, outputs):
        # a float output was truncated, and a bool read as 0 or 1
        with pytest.raises(ValidationError, match="^outputs: an index must be an integer, got "):
            TruthTable(2, 1, outputs)

    @pytest.mark.parametrize("bad", [1 << 63, -(1 << 63) - 1, 10**30])
    def test_output_past_int64_refused(self, bad):
        with pytest.raises(ValidationError, match=f"^outputs\\[1\\] = {bad} outside the int64 range$"):
            TruthTable(1, 1, [0, bad])


class TestJsonIngestion:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "tt.json"
        path.write_text(json.dumps({"n_in": 2, "m_out": 1, "outputs": [0, 0, 0, 1]}))
        tt = table_from_json(str(path))
        assert np.array_equal(tt.outputs, AND.outputs)

    def test_missing_key(self):
        with pytest.raises(ValidationError, match="m_out"):
            table_from_dict({"n_in": 2, "outputs": [0, 0, 0, 1]})

    def test_bad_entry_type_reports_index(self):
        with pytest.raises(ValidationError, match=r"outputs\[1\]"):
            table_from_dict({"n_in": 1, "m_out": 1, "outputs": [0, "x"]})

    @pytest.mark.parametrize(
        "fields, reason",
        [
            ({"n_in": 1.0}, "n_in: expected an integer, got 1.0"),
            ({"m_out": True}, "m_out: expected an integer, got True"),
            ({"outputs": {"0": 1}}, "outputs: expected a list of integers, got {'0': 1}"),
        ],
    )
    def test_reads_fields_with_the_shared_readers(self, fields, reason):
        with pytest.raises(ValidationError) as exc:
            table_from_dict({"n_in": 1, "m_out": 1, "outputs": [0, 1], **fields})
        assert str(exc.value) == reason

    def test_bad_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError):
            table_from_json(str(path))


class TestEvalForward:
    def test_and_xor_clean_slot(self):
        assert eval_forward(AND, SubtractMode.XOR, 3, 0) == (3, 1)

    def test_xor_flips_back(self):
        assert eval_forward(AND, SubtractMode.XOR, 3, 1) == (3, 0)

    def test_self_inverse_clears(self):
        tt = named_table("ADDER(2)")
        for x in range(16):
            _, y1 = eval_forward(tt, SubtractMode.XOR, x, 0)
            assert eval_forward(tt, SubtractMode.XOR, x, y1) == (x, 0)

    def test_mod_sub_hand_values(self):
        # f(x) = 3x mod 8 on 3 input bits
        tt = TruthTable(3, 3, np.array([(3 * x) % 8 for x in range(8)]))
        assert eval_forward(tt, SubtractMode.MOD_SUB, 2, 5) == (2, 1)

    def test_mod_sub_increment_table(self):
        tt = TruthTable(2, 2, np.array([(x + 1) % 4 for x in range(4)]))
        assert eval_forward(tt, SubtractMode.MOD_SUB, 2, 1) == (2, 2)

    def test_range_errors(self):
        with pytest.raises(DomainError):
            eval_forward(AND, SubtractMode.XOR, 4, 0)
        with pytest.raises(DomainError):
            eval_forward(AND, SubtractMode.XOR, 0, 2)


class TestScalarArguments:
    @pytest.mark.parametrize("op", sorted(SCALAR_ARGUMENT_OPS))
    @pytest.mark.parametrize("v", NON_INTEGER_SCALARS, ids=NON_INTEGER_IDS)
    def test_must_be_integers(self, op, v):
        # a float ended in an IndexError, a bool in a TypeError
        name = op.split(":")[-1]
        with pytest.raises(DomainError, match=f"^{name} must be an integer, got "):
            SCALAR_ARGUMENT_OPS[op](v)

    def test_numpy_integers_accepted(self):
        p = build_reversible(AND, SubtractMode.XOR)
        assert AND(np.int64(3)) == 1
        assert eval_forward(AND, SubtractMode.XOR, np.int32(3), np.uint8(0)) == (3, 1)
        assert p.apply(np.int64(3), np.int16(1)) == (3, 0)


class TestBuildReversible:
    def test_and_xor_pairs(self):
        p = build_reversible(AND, SubtractMode.XOR)
        assert p.apply(3, 0) == (3, 1)
        assert p.apply(3, 1) == (3, 0)
        assert p.apply(0, 1) == (0, 1)

    def test_size_limit(self):
        tt = TruthTable(20, 1, np.zeros(1 << 20, dtype=np.int64))
        with pytest.raises(ResourceLimitError):
            build_reversible(tt, SubtractMode.XOR)

    @pytest.mark.parametrize("mode", list(SubtractMode))
    def test_lift_is_its_table_and_mode(self, mode):
        for name in ["AND", "ADDER(6)", "CONST(0,20,5)", "CONST(19,1,1)"]:
            tt = named_table(name)
            p = build_reversible(tt, mode)
            assert vars(p) == {"table": tt, "mode": mode}
            assert (p.n_in, p.m_out) == (tt.n_in, tt.m_out)

    @pytest.mark.parametrize("mode", list(SubtractMode))
    def test_peak_is_the_lift_itself(self, mode, traced_peak):
        # a 20-pair-bit lift is the table and the mode: no array of its
        # 2^20 pairs (8 MiB as int64) is formed
        tt = named_table("CONST(19,1,0)")
        with traced_peak() as traced:
            build_reversible(tt, mode)
        assert traced.peak < 1 << 10

    @pytest.mark.parametrize(
        "table, mode, reason",
        [
            (AND.outputs, SubtractMode.XOR, "^table must be a TruthTable, got ndarray$"),
            ((2, 1, [0, 0, 0, 1]), SubtractMode.XOR, "^table must be a TruthTable, got tuple$"),
            (AND, "xor", "^mode must be a SubtractMode, got 'xor'$"),
            (AND, None, "^mode must be a SubtractMode, got None$"),
        ],
        ids=["outputs", "tuple", "mode-string", "mode-None"],
    )
    def test_direct_lift_refuses_a_non_table_or_a_non_mode(self, table, mode, reason):
        with pytest.raises(ValidationError, match=reason):
            ReversiblePermutation(table, mode)

    @pytest.mark.parametrize("mode", list(SubtractMode))
    def test_direct_lift_refuses_m_out_past_int64(self, mode):
        # 63 output bits keep y and the mask 2^m_out - 1 in int64
        p = ReversiblePermutation(TruthTable(0, 63, [1]), mode)
        top = (1 << 63) - 1
        assert p.apply(0, 1) == eval_forward(p.table, mode, 0, 1)
        assert p.apply(0, top) == eval_forward(p.table, mode, 0, top)
        want = [eval_forward(p.table, mode, 0, y)[1] for y in (0, 1 << 62)]
        assert as_register_permutation(p, [], range(63), 63, [0, 1 << 62]).tolist() == want
        # 64 are refused when built, before apply or as_register_permutation
        # can overflow on the mask
        refused = "^m_out must be at most 63 for a lift, got 64$"
        with pytest.raises(ValidationError, match=refused):
            ReversiblePermutation(TruthTable(0, 64, [1]), mode).apply(0, 1)
        with pytest.raises(ValidationError, match=refused):
            as_register_permutation(ReversiblePermutation(TruthTable(0, 64, [1]), mode), [], range(64), 64, [0])
        # build_reversible keeps refusing it by the pair-bit limit first
        with pytest.raises(ResourceLimitError, match="pair register of 64 bits"):
            build_reversible(TruthTable(0, 64, [1]), mode)

    def test_unknown_mode_refused_when_built(self):
        with pytest.raises(DomainError, match="^unknown mode 'xor'$"):
            build_reversible(AND, "xor")

    @given(truth_tables(), st.sampled_from(list(SubtractMode)))
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_eval_forward(self, tt, mode):
        p = build_reversible(tt, mode)
        xs = np.arange(1 << tt.n_in)
        ys = np.arange(1 << tt.m_out)
        for x in xs[:: max(1, len(xs) // 8)]:
            for y in ys[:: max(1, len(ys) // 8)]:
                assert p.apply(int(x), int(y)) == eval_forward(tt, mode, int(x), int(y))

    @given(truth_tables(), st.sampled_from(list(SubtractMode)))
    @settings(max_examples=40, deadline=None)
    def test_involution_exhaustive(self, tt, mode):
        ok, counter = check_involution(build_reversible(tt, mode))
        assert ok and counter is None


class TestCheckInvolution:
    def test_non_involutive_counterexample(self, monkeypatch):
        # y' = y + 1 mod 4 is a bijection on y but not an involution; the
        # 0 * x keeps the broadcast shape of the pairs
        monkeypatch.setattr(ReversiblePermutation, "images", lambda self, x, y: (0 * x + y + 1) % 4)
        p = build_reversible(TruthTable(1, 2, [0, 0]), SubtractMode.XOR)
        ok, counter = check_involution(p)
        assert not ok
        assert counter == (0, 0)
        x, y = counter
        assert p.apply(*p.apply(x, y)) != (x, y)

    def test_pair_bits_bound_the_exhaustive_check(self):
        # a direct lift past MAX_PAIR_BITS is refused before its pairs are formed
        p = ReversiblePermutation(TruthTable(0, MAX_PAIR_BITS + 1, [0]), SubtractMode.XOR)
        with pytest.raises(ResourceLimitError, match=f"pair register of {MAX_PAIR_BITS + 1} bits"):
            check_involution(p)


class TestRegisterEmbedding:
    def test_and_xor_maps_011_to_111(self):
        p = build_reversible(AND, SubtractMode.XOR)
        perm = as_register_permutation(p, [0, 1], [2], 3, np.arange(8))
        assert perm[0b011] == 0b111
        assert perm[0b111] == 0b011

    def test_identity_table_gives_identity(self):
        p = build_reversible(named_table("CONST(2,1,0)"), SubtractMode.XOR)
        perm = as_register_permutation(p, [0, 1], [2], 3, np.arange(8))
        assert np.array_equal(perm, np.arange(8))

    def test_spectator_bit_fixed(self):
        p = build_reversible(AND, SubtractMode.XOR)
        perm = as_register_permutation(p, [0, 1], [2], 4, np.arange(16))
        for i in range(16):
            assert (perm[i] >> 3) & 1 == (i >> 3) & 1

    def test_validation(self):
        p = build_reversible(AND, SubtractMode.XOR)
        with pytest.raises(ValidationError):
            as_register_permutation(p, [0, 1], [1], 3, np.arange(8))  # overlap
        with pytest.raises(ValidationError):
            as_register_permutation(p, [0, 1], [3], 3, np.arange(8))  # out of range
        with pytest.raises(ValidationError):
            as_register_permutation(p, [0], [2], 3, np.arange(8))  # wrong count

    @pytest.mark.parametrize(
        "x_qubits, y_qubits", [([0, 1.0], [2]), ([0, True], [2]), ([0, 1], [np.float64(2.0)])],
        ids=["1.0", "True", "float64"],
    )
    def test_qubits_must_be_integers(self, x_qubits, y_qubits):
        # a float qubit was truncated by int()
        p = build_reversible(AND, SubtractMode.XOR)
        with pytest.raises(ValidationError, match="^qubit index must be an integer, got "):
            as_register_permutation(p, x_qubits, y_qubits, 3, np.arange(8))

    def test_clean_evaluation_on_register(self):
        p = build_reversible(AND, SubtractMode.XOR)
        perm = as_register_permutation(p, [0, 1], [2], 3, np.arange(8))
        for x in range(4):
            state = apply_permutation(basis_state(3, x), perm)
            expect = x | (AND(x) << 2)
            assert np.array_equal(state.amps, basis_state(3, expect).amps)

    @given(
        truth_tables(max_pair_bits=6),
        st.sampled_from(list(SubtractMode)),
        st.integers(min_value=0, max_value=3),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_rows_map_as_the_whole_permutation(self, tt, mode, spare, rnd):
        # the images of some rows, in any order and with repeats, are the
        # whole permutation's entries at those rows
        n_total = tt.n_in + tt.m_out + spare
        qs = list(range(n_total))
        rnd.shuffle(qs)
        x_qubits, y_qubits = qs[: tt.n_in], qs[tt.n_in : tt.n_in + tt.m_out]
        p = build_reversible(tt, mode)
        whole = ref_register_permutation(p, x_qubits, y_qubits, n_total)
        every_row = np.arange(1 << n_total)
        got = as_register_permutation(p, x_qubits, y_qubits, n_total, every_row)
        assert np.array_equal(got, whole)
        rows = np.array([rnd.randrange(1 << n_total) for _ in range(rnd.randrange(6))], dtype=np.int64)
        got = as_register_permutation(p, x_qubits, y_qubits, n_total, rows)
        assert np.array_equal(got, whole[rows])

    @given(truth_tables(max_pair_bits=6), st.sampled_from(list(SubtractMode)))
    @settings(max_examples=30, deadline=None)
    def test_uncompute_identity(self, tt, mode):
        p = build_reversible(tt, mode)
        n_total = tt.n_in + tt.m_out
        perm = as_register_permutation(
            p, list(range(tt.n_in)), list(range(tt.n_in, n_total)), n_total, np.arange(1 << n_total)
        )
        rng = np.random.default_rng(0)
        amps = rng.normal(size=1 << n_total) + 1j * rng.normal(size=1 << n_total)
        from cvhistory.qubits import RegisterState

        state = RegisterState(n_total, amps / np.linalg.norm(amps))
        back = apply_permutation(apply_permutation(state, perm), perm)
        assert np.array_equal(back.amps, state.amps)


def loop_involution_suite(rng):
    """revcomp_involution with its spot check one apply per pair."""
    bad = trials = 0
    for _ in range(10):
        n_in = int(rng.integers(1, 7))
        m_out = int(rng.integers(1, min(7, 13 - n_in)))
        tt = validation._random_table(rng, n_in, m_out)
        for mode in SubtractMode:
            ok, _ = check_involution(build_reversible(tt, mode))
            trials += 1
            bad += not ok
    tt = validation._random_table(rng, 8, 8)
    for mode in SubtractMode:
        p = build_reversible(tt, mode)
        xs = rng.integers(0, 1 << 8, size=1000)
        ys = rng.integers(0, 1 << 8, size=1000)
        for x, y in zip(xs, ys):
            x1, y1 = p.apply(int(x), int(y))
            bad += p.apply(x1, y1) != (int(x), int(y))
        trials += 1
    return trials, float(bad)


def loop_forward_agreement_suite(rng):
    """revcomp_forward_agreement with one apply per pair."""
    bad = trials = 0
    for _ in range(10):
        n_in = int(rng.integers(1, 6))
        m_out = int(rng.integers(1, 6))
        tt = validation._random_table(rng, n_in, m_out)
        for mode in SubtractMode:
            p = build_reversible(tt, mode)
            for x in range(1 << n_in):
                for y in range(1 << m_out):
                    bad += p.apply(x, y) != eval_forward(tt, mode, x, y)
            trials += 1
    return trials, float(bad)


class TestRevcompSuites:
    @pytest.mark.parametrize("broken", [False, True], ids=["lift", "broken-lift"])
    @pytest.mark.parametrize(
        "name, reference",
        [
            ("revcomp_involution", loop_involution_suite),
            ("revcomp_forward_agreement", loop_forward_agreement_suite),
        ],
    )
    def test_whole_grid_matches_the_per_pair_loop(self, name, reference, broken, monkeypatch):
        # the suites compare images over whole arrays; their trials and
        # counts equal those of one apply per pair, also for a lift whose
        # images are wrong
        if broken:
            images = ReversiblePermutation.images
            # one too high on odd x: neither an involution nor f(x) (-) y
            monkeypatch.setattr(
                ReversiblePermutation,
                "images",
                lambda p, x, y: (images(p, x, y) + (np.asarray(x) & 1)) & ((1 << p.m_out) - 1),
            )
        suite = {n: fn for n, fn, _ in validation.SUITES}[name]
        for seed in (1234, 2718):
            key = [seed, validation.SUITE_NAMES.index(name)]
            got = suite(np.random.default_rng(key))
            assert got == reference(np.random.default_rng(key))
            assert (got[1] > 0) == broken
