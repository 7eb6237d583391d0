"""Truth tables, reversible lifts, involution checks, register embedding."""
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvhistory.errors import DomainError, ResourceLimitError, ValidationError
from cvhistory.qubits import apply_permutation, basis_state
from cvhistory.revcomp import (
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

AND = named_table("AND")


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
        with pytest.raises(ValidationError, match=f"^{field} must be an integer"):
            ReversiblePermutation(n_in, m_out, SubtractMode.XOR, [[0, 1], [1, 0]])

    def test_widest_table_keeps_its_length_rule(self):
        with pytest.raises(ValidationError, match=f"^outputs must have length 2\\^{MAX_TABLE_BITS} = "):
            TruthTable(MAX_TABLE_BITS, MAX_TABLE_BITS, [0])

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
    def test_non_involutive_counterexample(self):
        # y' = y + 1 mod 4 is a bijection on y but not an involution.
        y_map = np.tile((np.arange(4) + 1) % 4, (2, 1))
        p = ReversiblePermutation(1, 2, SubtractMode.XOR, y_map)
        ok, counter = check_involution(p)
        assert not ok
        assert counter is not None
        x, y = counter
        assert p.apply(*p.apply(x, y)) != (x, y)

    def test_non_bijective_rejected(self):
        with pytest.raises(ValidationError, match="x = 0"):
            ReversiblePermutation(0, 1, SubtractMode.XOR, np.array([[0, 0]]))


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

    def test_lift_built_once_per_mode(self):
        tt = named_table("ADDER(2)")
        for mode in SubtractMode:
            p = tt.reversible(mode)
            assert tt.reversible(mode) is p
            assert np.array_equal(p.y_map, build_reversible(tt, mode).y_map)
        assert tt.reversible(SubtractMode.XOR) is not tt.reversible(SubtractMode.MOD_SUB)

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
