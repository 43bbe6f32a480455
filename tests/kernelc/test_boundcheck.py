"""Static get() bounds proofs (the paper's §3.4 future work), read from
the kernel facts of the customizing function."""

from repro.skelcl.funcparse import parse_user_function
from repro.skelcl.mapoverlap import prove_customizer_bounds


def analyze(source: str, overlap: int):
    return prove_customizer_bounds(parse_user_function(source), overlap)


class TestProofs:
    def test_constant_offsets_proven(self):
        proof = analyze("float f(float* m) { return get(m, -1, 1) + get(m, 0, 0); }", 1)
        assert proof.proven

    def test_constant_offset_too_large_rejected(self):
        proof = analyze("float f(float* m) { return get(m, 2, 0); }", 1)
        assert not proof.proven

    def test_negative_offset_too_large_rejected(self):
        assert not analyze("float f(float* m) { return get(m, -3, 0); }", 2).proven

    def test_vector_get_single_offset(self):
        assert analyze("float f(float* v) { return get(v, -1) + get(v, 1); }", 1).proven

    def test_for_loop_bounds_inclusive(self):
        source = """
        float f(float* m) {
            float s = 0.0f;
            for (int i = -1; i <= 1; ++i) s += get(m, i, 0);
            return s;
        }"""
        assert analyze(source, 1).proven
        assert not analyze(source, 0).proven

    def test_for_loop_strict_bound(self):
        source = """
        float f(float* m) {
            float s = 0.0f;
            for (int i = -1; i < 2; ++i) s += get(m, 0, i);
            return s;
        }"""
        assert analyze(source, 1).proven

    def test_nested_loops(self):
        source = """
        float f(float* m) {
            float s = 0.0f;
            for (int i = -1; i <= 1; ++i)
                for (int j = -1; j <= 1; ++j)
                    s += get(m, i, j);
            return s;
        }"""
        assert analyze(source, 1).proven

    def test_loop_with_step(self):
        source = """
        float f(float* m) {
            float s = 0.0f;
            for (int i = -2; i <= 2; i += 2) s += get(m, i, 0);
            return s;
        }"""
        assert analyze(source, 2).proven

    def test_arithmetic_on_induction_variable(self):
        source = """
        float f(float* m) {
            float s = 0.0f;
            for (int i = 0; i <= 2; ++i) s += get(m, i - 1, 0);
            return s;
        }"""
        assert analyze(source, 1).proven

    def test_unknown_variable_rejected(self):
        source = """
        float f(float* m, int k) { return get(m, k, 0); }"""
        assert not analyze(source, 1).proven

    def test_variable_reassigned_in_while_rejected(self):
        source = """
        float f(float* m) {
            int i = 0;
            while (i < 1) { ++i; }
            return get(m, i, 0);
        }"""
        assert not analyze(source, 1).proven

    def test_constant_propagation_through_locals(self):
        source = """
        float f(float* m) {
            int left = -1;
            int right = 1;
            return get(m, left, 0) + get(m, right, 0);
        }"""
        assert analyze(source, 1).proven

    def test_branch_join(self):
        source = """
        float f(float* m, int c) {
            int off = 0;
            if (c) { off = 1; } else { off = -1; }
            return get(m, off, 0);
        }"""
        assert analyze(source, 1).proven
        assert not analyze(source, 0).proven

    def test_reassignment_after_branch_uses_join(self):
        source = """
        float f(float* m, int c) {
            int off = 5;
            if (c) { off = 0; }
            return get(m, off, 0);
        }"""
        assert not analyze(source, 1).proven

    def test_no_get_calls_trivially_proven(self):
        assert analyze("float f(float x) { return x; }", 1).proven

    def test_descending_loop_not_matched_but_safe(self):
        # A descending loop binds i = 1 - t with the guard t <= 2: the
        # proof holds, and the claimed reach covers every offset the
        # loop takes (1, 0, -1) — never a wrong proof.
        source = """
        float f(float* m) {
            float s = 0.0f;
            for (int i = 1; i >= -1; --i) s += get(m, i, 0);
            return s;
        }"""
        proof = analyze(source, 1)
        assert proof.proven
        taken = [1, 0, -1]
        assert any(all(lo <= v <= hi for v in taken) for lo, hi in proof.accesses)
        assert proof.reach == 1
        assert not analyze(source, 0).proven

    def test_early_return_in_a_case_does_not_guard_later_cases(self):
        # With k != 0 the default case is entered directly and reads
        # get(m, 3, 0): case 0's early return implies i <= 0 only inside
        # case 0.
        source = """
        float f(float* m, int k) {
            float s = 0.0f;
            for (int i = 0; i < 4; i++) {
                switch (k) {
                case 0: if (i > 0) return s; break;
                default: s += get(m, i, 0);
                }
            }
            return s;
        }"""
        proof = analyze(source, 1)
        assert not proof.proven
        assert (0, 3) in proof.accesses
        assert analyze(source, 3).proven

    def test_do_body_left_by_break_guards_nothing_after_it(self):
        # With k != 0 the break skips the early return, and the get()
        # after the do reads offset 3.
        for body in ("do { if (k) break; if (i > 0) return s; } while (0);",
                     "if (i > 0) do { if (k) break; return s; } while (0);"):
            source = f"""
            float f(float* m, int k) {{
                float s = 0.0f;
                for (int i = 0; i < 4; i++) {{
                    {body}
                    s += get(m, i, 0);
                }}
                return s;
            }}"""
            proof = analyze(source, 1)
            assert not proof.proven, body
            assert (0, 3) in proof.accesses, body

    def test_ternary_offset(self):
        source = "float f(float* m, int c) { return get(m, c ? 1 : -1, 0); }"
        assert analyze(source, 1).proven


class TestPointerEscape:
    """A proof is only as good as its view of the accesses: any use of
    the pointer parameter outside the recognized ``get()``/direct
    patterns (aliasing, helper calls) hides reads from the analysis and
    must poison the proof — a proven result would let MapOverlap shrink
    the staged halo below the kernel's actual reach."""

    def test_aliased_pointer_poisons_proof(self):
        proof = analyze("float f(float* v) { float* p = v; return p[3]; }", 1)
        assert not proof.proven
        assert "escapes" in proof.reason

    def test_pointer_passed_to_helper_poisons_proof(self):
        # A helper's accesses are followed through the call: q[3] is an
        # offset of 3, outside the overlap of 1.
        source = """
        float pick(float* q) { return q[3]; }
        float f(float* v) { return pick(v); }
        """
        proof = analyze(source, 1)
        assert not proof.proven
        assert (3, 3) in proof.accesses

    def test_pointer_passed_to_unknown_callee_escapes(self):
        proof = analyze("float f(float* v) { return vload4(0, v).x; }", 1)
        assert not proof.proven
        assert "escapes" in proof.reason

    def test_pointer_in_unmodelled_arithmetic_poisons_proof(self):
        assert not analyze(
            "float f(float* v) { return v[1] + (v + 2)[0]; }", 1).proven

    def test_recognized_patterns_do_not_escape(self):
        proof = analyze(
            "float f(float* v) { return v[1] + *(v + 1) + *v + get(v, -1); }",
            1)
        assert proof.proven
