/* One layer's Adam moments and consolidation-gated hidden-weight update, fused.
 *
 * Each loop applies, weight by weight, the operations that optim.Adam.directions,
 * QuantGrid.plasticity, optim.metaplastic_update, QuantGrid.clip_hidden and
 * DenseLayer.set_hidden apply to whole arrays, in their order and in the
 * array's precision, so every result has numpy's bits:
 *   - constants arrive as doubles and are rounded to the array type once, as
 *     numpy casts a Python float to the array's dtype;
 *   - min, max and clip return NaN where numpy's do (fmin/fmax would not);
 *   - the build passes -ffp-contract=off, so no multiply and add fuse;
 *   - tanh is numpy's, applied between step1 and step2: libm's gives other bits.
 *
 * step1 (m* > 0) updates the moments, writes lr * u to the new-weight buffer
 * and the tanh argument to a scratch buffer. step2 turns both into clipped new
 * weights and returns the number of weights that left their level's interval
 * (lo, hi], writing their flat indices in ascending order. step0 (m* = 0) does
 * moments, step, clip and compare in one pass. The constants are in k[], in
 * the order of the K_* names.
 */
#include <math.h>
#include <stdint.h>

enum { K_B1, K_1MB1, K_B2, K_1MB2, K_C1, K_C2, K_EPS, K_LR, K_MSTAR, K_SLOPE, K_LO, K_HI };

#define BLOCK 64 /* weights compared before their moved indices are written */

/* append b..e-1 where flag is set to moved[0:count]; returns the new count */
static inline int64_t moved_indices(int64_t b, int64_t e, const unsigned char *flag,
                                    int64_t *restrict moved, int64_t count)
{
    for (int64_t i = b; i < e; i++) {
        moved[count] = i; /* count <= i: stays in bounds */
        count += flag[i - b];
    }
    return count;
}

#define DEFINE_STEP(T, SUF, SQRT, FABS)                                                  \
    static inline T adam_##SUF(T g, T *m, T *v, T b1, T k1, T b2, T k2, T c1, T c2,      \
                               T eps)                                                    \
    {                                                                                    \
        T mm = *m * b1 + k1 * g;                                                         \
        T vv = *v * b2 + (g * g) * k2;                                                   \
        *m = mm;                                                                         \
        *v = vv;                                                                         \
        return (mm / c1) / (SQRT(vv / c2) + eps);                                        \
    }                                                                                    \
                                                                                         \
    /* np.clip: max with lo, then min with hi, each keeping a NaN */                     \
    static inline T clip_##SUF(T x, T lo, T hi)                                          \
    {                                                                                    \
        T a = x > lo ? x : lo;                                                           \
        a = x != x ? x : a;                                                              \
        T b = a < hi ? a : hi;                                                           \
        return a != a ? a : b;                                                           \
    }                                                                                    \
                                                                                         \
    /* plasticity's tanh argument from |d| * slope, zero off the away branch */          \
    static inline T gate_##SUF(T a, T u, T d, T ms)                                      \
    {                                                                                    \
        const T zero = 0;                                                                \
        a = a - ms;                                                                      \
        a = (a < zero || a != a) ? a : zero;                                             \
        return a * (T)(u * d < zero);                                                    \
    }                                                                                    \
                                                                                         \
    void step1_##SUF(int64_t n, const T *restrict g, T *restrict m, T *restrict v,       \
                     const T *restrict w, const T *restrict wq, const T *restrict up,    \
                     const T *restrict nl, T *restrict arg, T *restrict out,             \
                     const double *k)                                                    \
    {                                                                                    \
        const T b1 = k[K_B1], k1 = k[K_1MB1], b2 = k[K_B2], k2 = k[K_1MB2];              \
        const T c1 = k[K_C1], c2 = k[K_C2], eps = k[K_EPS], lr = k[K_LR];                \
        const T ms = k[K_MSTAR], slope = k[K_SLOPE];                                     \
        if (up) { /* per-weight slopes: the side that holds the weight */                \
            for (int64_t i = 0; i < n; i++) {                                            \
                T u = adam_##SUF(g[i], &m[i], &v[i], b1, k1, b2, k2, c1, c2, eps);       \
                T d = w[i] - wq[i], above = d * up[i], below = d * nl[i];                \
                arg[i] = gate_##SUF((above > below || above != above) ? above : below,   \
                                    u, d, ms);                                           \
                out[i] = lr * u;                                                         \
            }                                                                            \
        } else { /* a grid of equal widths: one slope */                                 \
            for (int64_t i = 0; i < n; i++) {                                            \
                T u = adam_##SUF(g[i], &m[i], &v[i], b1, k1, b2, k2, c1, c2, eps);       \
                T d = w[i] - wq[i];                                                      \
                arg[i] = gate_##SUF(FABS(d) * slope, u, d, ms);                          \
                out[i] = lr * u;                                                         \
            }                                                                            \
        }                                                                                \
    }                                                                                    \
                                                                                         \
    int64_t step2_##SUF(int64_t n, const T *restrict w, const T *restrict t,             \
                        T *restrict out, const T *restrict lo, const T *restrict hi,     \
                        int64_t *restrict moved, const double *k)                        \
    {                                                                                    \
        const T one = 1, clo = k[K_LO], chi = k[K_HI];                                   \
        int64_t count = 0;                                                               \
        unsigned char flag[BLOCK];                                                       \
        for (int64_t b = 0; b < n; b += BLOCK) {                                         \
            int64_t e = n - b < BLOCK ? n : b + BLOCK;                                   \
            unsigned char any = 0;                                                       \
            for (int64_t i = b; i < e; i++) {                                            \
                T x = clip_##SUF(w[i] - out[i] * (one - t[i] * t[i]), clo, chi);         \
                out[i] = x;                                                              \
                unsigned char f = !((x > lo[i]) & (x <= hi[i]));                         \
                flag[i - b] = f;                                                         \
                any |= f;                                                                \
            }                                                                            \
            if (any)                                                                     \
                count = moved_indices(b, e, flag, moved, count);                         \
        }                                                                                \
        return count;                                                                    \
    }                                                                                    \
                                                                                         \
    int64_t step0_##SUF(int64_t n, const T *restrict g, T *restrict m, T *restrict v,    \
                        const T *restrict w, T *restrict out, const T *restrict lo,      \
                        const T *restrict hi, int64_t *restrict moved, const double *k)  \
    {                                                                                    \
        const T b1 = k[K_B1], k1 = k[K_1MB1], b2 = k[K_B2], k2 = k[K_1MB2];              \
        const T c1 = k[K_C1], c2 = k[K_C2], eps = k[K_EPS], lr = k[K_LR];                \
        const T clo = k[K_LO], chi = k[K_HI];                                            \
        int64_t count = 0;                                                               \
        unsigned char flag[BLOCK];                                                       \
        for (int64_t b = 0; b < n; b += BLOCK) {                                         \
            int64_t e = n - b < BLOCK ? n : b + BLOCK;                                   \
            unsigned char any = 0;                                                       \
            for (int64_t i = b; i < e; i++) {                                            \
                T u = adam_##SUF(g[i], &m[i], &v[i], b1, k1, b2, k2, c1, c2, eps);       \
                T x = clip_##SUF(w[i] - lr * u, clo, chi);                               \
                out[i] = x;                                                              \
                unsigned char f = !((x > lo[i]) & (x <= hi[i]));                         \
                flag[i - b] = f;                                                         \
                any |= f;                                                                \
            }                                                                            \
            if (any)                                                                     \
                count = moved_indices(b, e, flag, moved, count);                         \
        }                                                                                \
        return count;                                                                    \
    }

DEFINE_STEP(float, f32, sqrtf, fabsf)
DEFINE_STEP(double, f64, sqrt, fabs)
