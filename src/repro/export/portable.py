"""Portable plain-C backend for the C exporter, and the native tier's
vector-extension helpers.

Unlike the SSE/AltiVec backends, which map vector operations onto a
specific ISA's intrinsics (and must *reject* ops the ISA cannot express
exactly, e.g. SSE ``pavg`` rounds up where our ``avg`` floors), this
backend emits standard C that any GCC/Clang-compatible compiler accepts
on any host: a vector is a ``struct { uint8_t b[V]; }`` and every op is
a per-lane loop with the virtual machine's exact semantics —

* ``add``/``sub``/``mul`` are modular on the unsigned lane bits
  (widened through ``uint64_t`` so C integer promotion can never make
  an intermediate product undefined);
* ``min``/``max`` compare signed or unsigned per the element type;
* ``avg`` widens per the element signedness and floors
  (``(a + b) >> 1`` on ``int64_t`` — an arithmetic shift on GCC/Clang);
* ``sadd``/``ssub`` widen, clip to the element range, and re-wrap;
* ``viota`` floor-divides the (possibly negative) counter exactly like
  :func:`repro.machine.vec.viota`.

At ``-O3`` the compilers auto-vectorize these lane loops without this
module ever naming an ISA.  Every op is expressible, so — unlike
SSE/AltiVec — ``CodegenError`` is never raised for an op/dtype
combination.

Little-endian hosts only (lane order in memory matters); the emitted
unit refuses to compile elsewhere rather than silently diverge.

The native tier compiles its kernels against a second flavour of the
same helper set: :func:`simd_helpers` maps ``simdal_vec`` onto
GCC/Clang ``__attribute__((vector_size(V)))`` types — true SIMD
expressions, ``__builtin_shufflevector`` realignment, and
``__builtin_assume_aligned`` loads/stores — with byte-identical
semantics, behind :func:`kernel_unit_prelude`.  The exporter proper
(``repro export``) always uses the scalar-lane backend, which compiles
anywhere.
"""

from __future__ import annotations

from repro.errors import CodegenError
from repro.ir.types import DataType
from repro.export.cgen import Backend, C_TYPES


class PortableBackend(Backend):
    name = "portable"
    vector_type = "simdal_vec"

    def headers(self) -> list[str]:
        return []

    def helpers(self, V: int, dtype: DataType) -> str:
        if V % dtype.size != 0:
            raise CodegenError(
                f"vector length {V} is not a multiple of lane size {dtype.size}"
            )
        B = V // dtype.size
        lane = C_TYPES[dtype.name]
        ulane = f"uint{dtype.size * 8}_t"
        lo, hi = dtype.min_value, dtype.max_value
        if dtype.signed:
            widen = f"(int64_t)(simdal_lane)"
        else:
            widen = f"(int64_t)"
        return f"""
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ != __ORDER_LITTLE_ENDIAN__
#error "the simdal portable backend assumes a little-endian host"
#endif

#define SIMDAL_V {V}
#define SIMDAL_B {B}
typedef {lane} simdal_lane;
typedef {ulane} simdal_ulane;
typedef struct {{ uint8_t b[SIMDAL_V]; }} simdal_vec;

static inline simdal_ulane simdal_lane_get(const uint8_t *p, int l) {{
    simdal_ulane x;
    memcpy(&x, p + (size_t)l * sizeof x, sizeof x);
    return x;
}}

static inline void simdal_lane_put(uint8_t *p, int l, simdal_ulane x) {{
    memcpy(p + (size_t)l * sizeof x, &x, sizeof x);
}}

static inline simdal_vec simdal_load(const void *p) {{
    simdal_vec v;
    memcpy(v.b, p, SIMDAL_V);
    return v;
}}

static inline void simdal_store(void *p, simdal_vec v) {{
    memcpy(p, v.b, SIMDAL_V);
}}

static inline simdal_vec simdal_shiftpair(simdal_vec a, simdal_vec b,
                                          int64_t k) {{
    /* bytes k..k+V-1 of the concatenation a++b, k in [0, V] */
    uint8_t buf[2 * SIMDAL_V];
    simdal_vec r;
    memcpy(buf, a.b, SIMDAL_V);
    memcpy(buf + SIMDAL_V, b.b, SIMDAL_V);
    memcpy(r.b, buf + k, SIMDAL_V);
    return r;
}}

static inline simdal_vec simdal_splice(simdal_vec a, simdal_vec b,
                                       int64_t point) {{
    /* first `point` bytes from a, the rest from b (point in [0, V]) */
    simdal_vec r;
    for (int l = 0; l < SIMDAL_V; l++)
        r.b[l] = (int64_t)l < point ? a.b[l] : b.b[l];
    return r;
}}

static inline simdal_vec simdal_splat(int64_t x) {{
    simdal_vec r;
    simdal_ulane z = (simdal_ulane)x;
    for (int l = 0; l < SIMDAL_B; l++)
        simdal_lane_put(r.b, l, z);
    return r;
}}

static inline simdal_vec simdal_iota(int64_t x) {{
    /* lanes of the V-aligned window holding element counter x; the
       counter can be negative in prologue displacements, so divide
       with floor semantics */
    int64_t m = x >= 0 ? x / SIMDAL_B : ~((~x) / SIMDAL_B);
    simdal_vec r;
    for (int l = 0; l < SIMDAL_B; l++)
        simdal_lane_put(r.b, l, (simdal_ulane)(m * SIMDAL_B + l));
    return r;
}}

static inline simdal_vec simdal_op_add(simdal_vec a, simdal_vec b) {{
    simdal_vec r;
    for (int l = 0; l < SIMDAL_B; l++) {{
        uint64_t x = simdal_lane_get(a.b, l), y = simdal_lane_get(b.b, l);
        simdal_lane_put(r.b, l, (simdal_ulane)(x + y));
    }}
    return r;
}}

static inline simdal_vec simdal_op_sub(simdal_vec a, simdal_vec b) {{
    simdal_vec r;
    for (int l = 0; l < SIMDAL_B; l++) {{
        uint64_t x = simdal_lane_get(a.b, l), y = simdal_lane_get(b.b, l);
        simdal_lane_put(r.b, l, (simdal_ulane)(x - y));
    }}
    return r;
}}

static inline simdal_vec simdal_op_mul(simdal_vec a, simdal_vec b) {{
    simdal_vec r;
    for (int l = 0; l < SIMDAL_B; l++) {{
        uint64_t x = simdal_lane_get(a.b, l), y = simdal_lane_get(b.b, l);
        simdal_lane_put(r.b, l, (simdal_ulane)(x * y));
    }}
    return r;
}}

static inline simdal_vec simdal_op_and(simdal_vec a, simdal_vec b) {{
    simdal_vec r;
    for (int l = 0; l < SIMDAL_V; l++)
        r.b[l] = a.b[l] & b.b[l];
    return r;
}}

static inline simdal_vec simdal_op_or(simdal_vec a, simdal_vec b) {{
    simdal_vec r;
    for (int l = 0; l < SIMDAL_V; l++)
        r.b[l] = a.b[l] | b.b[l];
    return r;
}}

static inline simdal_vec simdal_op_xor(simdal_vec a, simdal_vec b) {{
    simdal_vec r;
    for (int l = 0; l < SIMDAL_V; l++)
        r.b[l] = a.b[l] ^ b.b[l];
    return r;
}}

static inline simdal_vec simdal_op_min(simdal_vec a, simdal_vec b) {{
    simdal_vec r;
    for (int l = 0; l < SIMDAL_B; l++) {{
        simdal_ulane x = simdal_lane_get(a.b, l), y = simdal_lane_get(b.b, l);
        int64_t wx = {widen}x, wy = {widen}y;
        simdal_lane_put(r.b, l, wx < wy ? x : y);
    }}
    return r;
}}

static inline simdal_vec simdal_op_max(simdal_vec a, simdal_vec b) {{
    simdal_vec r;
    for (int l = 0; l < SIMDAL_B; l++) {{
        simdal_ulane x = simdal_lane_get(a.b, l), y = simdal_lane_get(b.b, l);
        int64_t wx = {widen}x, wy = {widen}y;
        simdal_lane_put(r.b, l, wx > wy ? x : y);
    }}
    return r;
}}

static inline simdal_vec simdal_op_avg(simdal_vec a, simdal_vec b) {{
    /* floor average on the widened lane values (arithmetic shift) */
    simdal_vec r;
    for (int l = 0; l < SIMDAL_B; l++) {{
        int64_t wx = {widen}simdal_lane_get(a.b, l);
        int64_t wy = {widen}simdal_lane_get(b.b, l);
        simdal_lane_put(r.b, l, (simdal_ulane)((wx + wy) >> 1));
    }}
    return r;
}}

static inline simdal_vec simdal_op_sadd(simdal_vec a, simdal_vec b) {{
    simdal_vec r;
    for (int l = 0; l < SIMDAL_B; l++) {{
        int64_t w = {widen}simdal_lane_get(a.b, l)
                  + {widen}simdal_lane_get(b.b, l);
        if (w < {lo}) w = {lo};
        if (w > {hi}) w = {hi};
        simdal_lane_put(r.b, l, (simdal_ulane)w);
    }}
    return r;
}}

static inline simdal_vec simdal_op_ssub(simdal_vec a, simdal_vec b) {{
    simdal_vec r;
    for (int l = 0; l < SIMDAL_B; l++) {{
        int64_t w = {widen}simdal_lane_get(a.b, l)
                  - {widen}simdal_lane_get(b.b, l);
        if (w < {lo}) w = {lo};
        if (w > {hi}) w = {hi};
        simdal_lane_put(r.b, l, (simdal_ulane)w);
    }}
    return r;
}}
"""

    def load(self, ptr: str) -> str:
        return f"simdal_load({ptr})"

    def store(self, ptr: str, value: str) -> str:
        return f"simdal_store({ptr}, {value})"

    def shiftpair(self, a: str, b: str, shift: str, const_shift: int | None) -> str:
        if const_shift == 0:
            return a
        return f"simdal_shiftpair({a}, {b}, {shift})"

    def splice(self, a: str, b: str, point: str) -> str:
        return f"simdal_splice({a}, {b}, {point})"

    def splat(self, value: str, dtype: DataType) -> str:
        return f"simdal_splat((int64_t)({value}))"

    def iota(self, counter_expr: str, dtype: DataType, V: int) -> str:
        return f"simdal_iota({counter_expr})"

    def binop(self, op_name: str, a: str, b: str, dtype: DataType) -> str:
        known = ("add", "sub", "mul", "and", "or", "xor", "min", "max",
                 "avg", "sadd", "ssub")
        if op_name not in known:
            raise CodegenError(f"no portable mapping for op {op_name!r}")
        return f"simdal_op_{op_name}({a}, {b})"


def simd_helpers(V: int, dtype: DataType) -> str:
    """The vector-extension twin of :meth:`PortableBackend.helpers`.

    Same helper names, same exact semantics, but ``simdal_vec`` is a
    GCC/Clang ``__attribute__((vector_size(V)))`` unsigned-lane vector
    so every op is a single vector expression the compiler lowers to
    real SIMD instructions instead of an auto-vectorization candidate.
    Differences that matter for exactness:

    * arithmetic runs on the *unsigned* lane vector (element-wise wrap
      is defined); the signed view ``simdal_svec`` appears only in
      comparisons and arithmetic right shifts, mirroring the scalar
      helpers' widen-then-wrap behaviour bit for bit —
      ``avg`` uses the carry-free identity ``(a & b) + ((a ^ b) >> 1)``
      (exact floor average, signed via arithmetic shift), ``sadd`` /
      ``ssub`` use overflow-mask saturation;
    * ``simdal_load_a``/``simdal_store_a`` wrap the pointer in
      ``__builtin_assume_aligned(p, V)`` — the native tier only emits
      them for addresses that are *provably* V-aligned (window bases
      and section bases are truncated to V, and every buffer base
      comes from :mod:`repro.machine.alignedbuf`);
    * constant-amount ``simdal_shiftpair_c``/``simdal_splice_c`` are
      ``__builtin_shufflevector`` macros (indices must be literals);
      the runtime-amount forms go through an aligned double-width
      buffer, which the optimizer folds to byte shifts.

    Lane order is memory order on a little-endian host (enforced by
    the same preprocessor guard as the scalar helpers), so results are
    byte-identical to the scalar helpers and the bytes oracle.
    """
    if V % dtype.size != 0:
        raise CodegenError(
            f"vector length {V} is not a multiple of lane size {dtype.size}"
        )
    B = V // dtype.size
    lane = C_TYPES[dtype.name]
    ulane = f"uint{dtype.size * 8}_t"
    slane = f"int{dtype.size * 8}_t"
    hi = dtype.max_value
    sign_shift = dtype.size * 8 - 1
    iota_idx = ", ".join(str(l) for l in range(B))
    splice_idx = ", ".join(str(l) for l in range(V))
    shift_sel = ", ".join(f"(k) + {l}" for l in range(V))
    splice_sel = ", ".join(f"((p) > {l} ? {l} : SIMDAL_V + {l})"
                           for l in range(V))
    if dtype.signed:
        cmp_cast = "(simdal_svec)"
        avg = """\
    simdal_svec sa = (simdal_svec)a, sb = (simdal_svec)b;
    return (simdal_vec)((sa & sb) + ((sa ^ sb) >> 1));"""
        sadd = f"""\
    simdal_vec s = a + b;
    simdal_svec ovf = (simdal_svec)(~(a ^ b) & (s ^ a)) >> {sign_shift};
    simdal_vec sat = ((simdal_vec)((simdal_svec)a >> {sign_shift}))
                     ^ (simdal_ulane){hi};
    return (sat & (simdal_vec)ovf) | (s & ~(simdal_vec)ovf);"""
        ssub = f"""\
    simdal_vec d = a - b;
    simdal_svec ovf = (simdal_svec)((a ^ b) & (d ^ a)) >> {sign_shift};
    simdal_vec sat = ((simdal_vec)((simdal_svec)a >> {sign_shift}))
                     ^ (simdal_ulane){hi};
    return (sat & (simdal_vec)ovf) | (d & ~(simdal_vec)ovf);"""
    else:
        cmp_cast = ""
        avg = "    return (a & b) + ((a ^ b) >> 1);"
        sadd = """\
    simdal_vec s = a + b;
    return s | (simdal_vec)(s < a);"""
        ssub = """\
    simdal_vec d = a - b;
    return d & (simdal_vec)~(a < b);"""
    return f"""
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ != __ORDER_LITTLE_ENDIAN__
#error "the simdal portable backend assumes a little-endian host"
#endif

#define SIMDAL_V {V}
#define SIMDAL_B {B}
typedef {lane} simdal_lane;
typedef {ulane} simdal_ulane;
typedef {ulane} simdal_vec __attribute__((vector_size(SIMDAL_V)));
typedef {slane} simdal_svec __attribute__((vector_size(SIMDAL_V)));
typedef uint8_t simdal_bvec __attribute__((vector_size(SIMDAL_V)));
typedef int8_t simdal_sbvec __attribute__((vector_size(SIMDAL_V)));

static inline simdal_vec simdal_load(const void *p) {{
    simdal_vec v;
    memcpy(&v, p, SIMDAL_V);
    return v;
}}

static inline void simdal_store(void *p, simdal_vec v) {{
    memcpy(p, &v, SIMDAL_V);
}}

/* Aligned forms: the caller guarantees p is V-aligned (window and
   section bases are V-truncated offsets into 64-byte-aligned buffers);
   the promise lets -O3 emit aligned vector moves. */
static inline simdal_vec simdal_load_a(const void *p) {{
    simdal_vec v;
    memcpy(&v, __builtin_assume_aligned(p, SIMDAL_V), SIMDAL_V);
    return v;
}}

static inline void simdal_store_a(void *p, simdal_vec v) {{
    memcpy(__builtin_assume_aligned(p, SIMDAL_V), &v, SIMDAL_V);
}}

static inline simdal_vec simdal_shiftpair(simdal_vec a, simdal_vec b,
                                          int64_t k) {{
    /* bytes k..k+V-1 of the concatenation a++b, k in [0, V] */
    uint8_t buf[2 * SIMDAL_V] __attribute__((aligned(SIMDAL_V)));
    simdal_store_a(buf, a);
    simdal_store_a(buf + SIMDAL_V, b);
    return simdal_load(buf + k);
}}

/* Constant-shift form: a single byte shuffle (vperm/palignr class). */
#define simdal_shiftpair_c(a, b, k) \\
    ((simdal_vec)__builtin_shufflevector( \\
        (simdal_bvec)(a), (simdal_bvec)(b), {shift_sel}))

static const simdal_bvec simdal_splice_idx = {{{splice_idx}}};

static inline simdal_vec simdal_splice(simdal_vec a, simdal_vec b,
                                       int64_t point) {{
    /* first `point` bytes from a, the rest from b (point in [0, V]) */
    simdal_sbvec m = (simdal_sbvec)(simdal_splice_idx < (uint8_t)point);
    return (simdal_vec)(((simdal_bvec)a & (simdal_bvec)m)
                        | ((simdal_bvec)b & ~(simdal_bvec)m));
}}

/* Constant-point form: a compile-time blend. */
#define simdal_splice_c(a, b, p) \\
    ((simdal_vec)__builtin_shufflevector( \\
        (simdal_bvec)(a), (simdal_bvec)(b), {splice_sel}))

static inline simdal_vec simdal_splat(int64_t x) {{
    return ((simdal_vec){{0}}) + (simdal_ulane)x;
}}

static const simdal_vec simdal_iota_idx = {{{iota_idx}}};

static inline simdal_vec simdal_iota(int64_t x) {{
    /* lanes of the V-aligned window holding element counter x; the
       counter can be negative in prologue displacements, so divide
       with floor semantics */
    int64_t m = x >= 0 ? x / SIMDAL_B : ~((~x) / SIMDAL_B);
    return simdal_splat(m * SIMDAL_B) + simdal_iota_idx;
}}

static inline simdal_vec simdal_op_add(simdal_vec a, simdal_vec b) {{
    return a + b;
}}

static inline simdal_vec simdal_op_sub(simdal_vec a, simdal_vec b) {{
    return a - b;
}}

static inline simdal_vec simdal_op_mul(simdal_vec a, simdal_vec b) {{
    return a * b;
}}

static inline simdal_vec simdal_op_and(simdal_vec a, simdal_vec b) {{
    return a & b;
}}

static inline simdal_vec simdal_op_or(simdal_vec a, simdal_vec b) {{
    return a | b;
}}

static inline simdal_vec simdal_op_xor(simdal_vec a, simdal_vec b) {{
    return a ^ b;
}}

static inline simdal_vec simdal_op_min(simdal_vec a, simdal_vec b) {{
    simdal_svec m = (simdal_svec)({cmp_cast}a < {cmp_cast}b);
    return (a & (simdal_vec)m) | (b & ~(simdal_vec)m);
}}

static inline simdal_vec simdal_op_max(simdal_vec a, simdal_vec b) {{
    simdal_svec m = (simdal_svec)({cmp_cast}a > {cmp_cast}b);
    return (a & (simdal_vec)m) | (b & ~(simdal_vec)m);
}}

static inline simdal_vec simdal_op_avg(simdal_vec a, simdal_vec b) {{
    /* floor average via the carry-free identity (exact vs widening) */
{avg}
}}

static inline simdal_vec simdal_op_sadd(simdal_vec a, simdal_vec b) {{
{sadd}
}}

static inline simdal_vec simdal_op_ssub(simdal_vec a, simdal_vec b) {{
{ssub}
}}
"""


def kernel_unit_prelude(V: int, dtype: DataType) -> str:
    """The self-contained prelude of a steady-kernel translation unit.

    Standard includes plus the vector-extension helper block
    (:func:`simd_helpers`) for one ``(V, dtype)`` pair, including the
    ``_a`` aligned and ``_c`` constant-amount forms the kernel emitter
    writes.  The helper names (``simdal_vec``, ``simdal_load``, …) are
    fixed and dtype-parameterized, so one prelude serves *every* kernel
    sharing the pair — the native tier batches all such kernels into a
    single ``.c`` file behind one prelude and compiles many signatures
    with one ``cc`` invocation.  Kernels with different lane types must
    land in different translation units (the typedefs would collide);
    all helpers are ``static inline`` so the resulting objects link
    together without symbol clashes.

    Each signature contributes one exported function, its steady
    kernel ``simdal_steady_<digest>``; nothing in the unit calls it,
    so ``cc -O3`` optimizes each kernel body exactly once.
    """
    return (
        "/* generated by simdal: steady-kernel translation unit */\n"
        "#include <stdint.h>\n"
        "#include <string.h>\n"
        + simd_helpers(V, dtype).rstrip()
        + "\n"
    )
