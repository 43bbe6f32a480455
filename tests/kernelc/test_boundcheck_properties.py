"""Property tests for the get() bounds proof (hypothesis).

The MapOverlap proof reads offsets from the kernel facts, so the affine
algebra those offsets are built with gets adversarial coverage — exact
evaluation of ``+``, ``-``, scaling and negation against concrete
values, and soundness of the guard-narrowed offset range — and the
proof itself is checked against actual loop iteration.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import affine
from repro.analysis.affine import AffineForm, UExpr
from repro.skelcl.funcparse import parse_user_function
from repro.skelcl.mapoverlap import prove_customizer_bounds

BOUND = 64

values = st.integers(min_value=-BOUND, max_value=BOUND)
IVS = [("iv", 1), ("iv", 2)]


@st.composite
def forms(draw):
    """An offset form ``c + a*t1 + b*t2`` over two induction symbols."""
    terms = {sym: UExpr.const(draw(values)) for sym in IVS}
    return AffineForm(UExpr.const(draw(values)), terms)


points = st.fixed_dictionaries({sym: st.integers(0, BOUND) for sym in IVS})


def at(form, point):
    base, coeffs = affine._concrete(form, affine.EvalEnv({}, {}))
    return base + sum(c * point[s] for s, c in coeffs.items())


def contains(span, value):
    return span[0] <= value <= span[1]


class TestArithmeticSoundness:
    """Offsets are evaluated exactly: f(p) op g(p) == (f op g)(p)."""

    @given(forms(), forms(), values, points)
    def test_add_sub_mul_sound(self, a, b, k, point):
        assert at(a + b, point) == at(a, point) + at(b, point)
        assert at(a - b, point) == at(a, point) - at(b, point)
        assert at(a.mul(AffineForm.const(k)), point) == at(a, point) * k
        assert a.mul(b) is None or a.is_uniform or b.is_uniform

    @given(forms(), points)
    def test_neg_sound(self, a, point):
        assert at(-a, point) == -at(a, point)

    @given(forms(), forms(), st.data())
    def test_operations_monotone(self, a, guard, data):
        # Every guard only narrows: the range under (guard) lies inside
        # the range without it, and both contain every value the form
        # takes on a point satisfying the guard.
        limits = (AffineForm.sym(IVS[0]) - AffineForm.const(BOUND),
                  AffineForm.sym(IVS[1]) - AffineForm.const(BOUND))
        wide = affine._offset_range(a, limits)
        narrow = affine._offset_range(a, limits + (guard,))
        point = data.draw(points)
        if narrow is affine._NEVER:
            assert at(guard, point) > 0
            return
        assert wide[0] <= narrow[0] and narrow[1] <= wide[1]
        if at(guard, point) <= 0:
            assert contains(narrow, at(a, point))

    @given(forms(), st.sampled_from([("param", "n"), ("gsize", 0)]))
    def test_within_respects_top(self, a, uniform):
        # An offset with a uniform symbol in it is unbounded (⊤): it
        # never gets a range, so it never proves.
        assert affine._offset_range(a + AffineForm.sym(uniform), ()) is None


class TestForLoopBoundSoundness:
    """The counting-loop matcher must never assign the induction
    variable an interval missing a value it actually takes."""

    @settings(max_examples=60)
    @given(
        st.integers(min_value=-8, max_value=8),
        st.integers(min_value=-8, max_value=12),
        st.sampled_from(["<", "<="]),
        st.integers(min_value=1, max_value=3),
    )
    def test_loop_offsets_covered(self, start, bound, op, step):
        increment = "++i" if step == 1 else f"i += {step}"
        source = f"""
        float f(float* m) {{
            float s = 0.0f;
            for (int i = {start}; i {op} {bound}; {increment}) s += get(m, i, 0);
            return s;
        }}"""

        # Concrete iteration values of the loop.
        concrete = []
        i = start
        while (i < bound) if op == "<" else (i <= bound):
            concrete.append(i)
            i += step

        proof = prove_customizer_bounds(parse_user_function(source), BOUND)
        if not concrete:
            # Zero-trip loop: the guard is infeasible, the access never
            # executes, and no range is claimed for it.
            assert proof.proven and proof.accesses == []
            return
        # Soundness: every concretely-taken offset lies inside the range
        # claimed for the get() call's first offset — and here the
        # guard-narrowed range is exact.
        assert proof.accesses, "loop body access was not collected"
        row = proof.accesses[0]
        for value in concrete:
            assert contains(row, value), (
                f"offset {value} escapes claimed interval {row} for {source}")
        assert row == (min(concrete), max(concrete))
        # And the proof agrees with a brute-force overlap check.
        assert proof.proven == all(-BOUND <= v <= BOUND for v in concrete)
