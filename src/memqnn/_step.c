/* The compiled parts of a training step: one layer's Adam moments and
 * consolidation-gated hidden-weight update with the re-projection of the
 * weights that left their level, and a hidden layer's train-mode batch norm
 * with its ReLU, forward and backward.
 *
 * Each loop applies, element by element, the operations that the numpy code it
 * stands in for applies to whole arrays (optim.Adam.directions,
 * QuantGrid.plasticity, optim.metaplastic_update, QuantGrid.clip_hidden,
 * DenseLayer.set_hidden, BatchNorm.forward/backward and MLP's ReLU), in their
 * order and in the array's precision, so every result has numpy's bits:
 *   - constants arrive as doubles and are rounded to the array type once, as
 *     numpy casts a Python float to the array's dtype;
 *   - min, max and clip return NaN where numpy's do (fmin/fmax would not);
 *   - the build passes -ffp-contract=off, so no multiply and add fuse;
 *   - tanh is numpy's, applied between step1 and step2: libm's gives other bits.
 *
 * step1 (m* > 0) updates the moments, writes lr * u to the new-weight buffer
 * and the tanh argument to a scratch buffer, reading a weight's slopes from
 * the grid's per-level tables at its level index (QuantGrid.slope_tables), or
 * one slope from k[] on a grid of equal widths. step2 turns both into clipped
 * new weights; step0 (m* = 0) does moments, step and clip in one pass. Both
 * then compare each new weight with its level's interval (lo, hi], re-project
 * the weights that left it and return how many did, their flat indices in
 * ascending order in moved[]; or -1, having written nothing to the level
 * state, if a moved weight is not finite. The constants are in k[], in the
 * order of the K_* names; the grid's table edges[] holds -inf, the midpoints
 * and the largest finite value (QuantGrid.level_tables).
 *
 * The batch-norm loops take a C-ordered (n, d) batch with n >= 1 and d >= 2.
 * For d >= 2 numpy sums such an array over axis 0 row by row, starting from
 * +0.0, which the column loops repeat; for d = 1 it sums pairwise, so a
 * width-1 layer stays numpy. A mean divides the sum by numpy's intp count, a
 * division numpy makes in double precision.
 */
#include <float.h>
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

/* the Adam constants, and one weight's direction from them */
#define ADAM_K(T)                                                                        \
    const T b1 = k[K_B1], k1 = k[K_1MB1], b2 = k[K_B2], k2 = k[K_1MB2];                  \
    const T c1 = k[K_C1], c2 = k[K_C2], eps = k[K_EPS], lr = k[K_LR]
#define ADAM(SUF, i) adam_##SUF(g[i], &m[i], &v[i], b1, k1, b2, k2, c1, c2, eps)

/* the level state of step0 and step2: the layer's level_idx, w_quant and
 * bounds (lo, hi], then the grid's edges and level values */
#define LEVELS(T)                                                                        \
    int16_t *restrict level_idx, T *restrict wq, T *restrict lo, T *restrict hi,         \
        const T *restrict edges, const T *restrict levels

/* the end of step0 and step2: each new weight NEW (an expression in i) is clipped,
 * written to out[i] and compared with (lo[i], hi[i]]; the moved ones re-projected */
#define UPDATE(T, SUF, NEW)                                                              \
    const T clo = k[K_LO], chi = k[K_HI];                                                \
    int64_t count = 0;                                                                   \
    unsigned char flag[BLOCK];                                                           \
    for (int64_t b = 0; b < n; b += BLOCK) {                                             \
        int64_t e = n - b < BLOCK ? n : b + BLOCK;                                       \
        unsigned char any = 0;                                                           \
        for (int64_t i = b; i < e; i++) {                                                \
            T x = clip_##SUF(NEW, clo, chi);                                             \
            out[i] = x;                                                                  \
            unsigned char f = !((x > lo[i]) & (x <= hi[i]));                             \
            flag[i - b] = f;                                                             \
            any |= f;                                                                    \
        }                                                                                \
        if (any)                                                                         \
            count = moved_indices(b, e, flag, moved, count);                             \
    }                                                                                    \
    return relevel_##SUF(count, moved, out, n_levels, level_idx, wq, lo, hi, edges, levels)

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
    /* the level a of each moved weight by binary search on the midpoints edges[1:]      \
     * (a weight on a midpoint takes the lower level, as QuantGrid.project_idx counts    \
     * them), then its level_idx, w_quant and bounds (edges[a], edges[a + 1]] */         \
    static int64_t relevel_##SUF(int64_t count, const int64_t *restrict moved,           \
                                 const T *restrict w, int64_t n_levels, LEVELS(T))       \
    {                                                                                    \
        for (int64_t c = 0; c < count; c++)                                              \
            if (!isfinite(w[moved[c]]))                                                  \
                return -1;                                                               \
        const T *mids = edges + 1;                                                       \
        for (int64_t c = 0; c < count; c++) {                                            \
            const int64_t i = moved[c];                                                  \
            const T x = w[i];                                                            \
            int64_t a = 0, b = n_levels - 1; /* mids [0, a) are below x, [b, ...) not */ \
            while (a < b) {                                                              \
                int64_t mid = a + (b - a) / 2;                                           \
                if (mids[mid] < x)                                                       \
                    a = mid + 1;                                                         \
                else                                                                     \
                    b = mid;                                                             \
            }                                                                            \
            level_idx[i] = (int16_t)a;                                                   \
            wq[i] = levels[a];                                                           \
            lo[i] = edges[a];                                                            \
            hi[i] = edges[a + 1];                                                        \
        }                                                                                \
        return count;                                                                    \
    }                                                                                    \
                                                                                         \
    void step1_##SUF(int64_t n, const T *restrict g, T *restrict m, T *restrict v,       \
                     const T *restrict w, const T *restrict wq,                          \
                     const int16_t *restrict level_idx, const T *restrict up,            \
                     const T *restrict nl, T *restrict arg, T *restrict out,             \
                     const double *k)                                                    \
    {                                                                                    \
        ADAM_K(T);                                                                       \
        const T ms = k[K_MSTAR], slope = k[K_SLOPE];                                     \
        if (up) { /* per-level slopes: the side that holds the weight */                 \
            for (int64_t i = 0; i < n; i++) {                                            \
                T u = ADAM(SUF, i);                                                      \
                const int16_t a = level_idx[i];                                          \
                T d = w[i] - wq[i], above = d * up[a], below = d * nl[a];                \
                arg[i] = gate_##SUF((above > below || above != above) ? above : below,   \
                                    u, d, ms);                                           \
                out[i] = lr * u;                                                         \
            }                                                                            \
        } else { /* a grid of equal widths: one slope */                                 \
            for (int64_t i = 0; i < n; i++) {                                            \
                T u = ADAM(SUF, i);                                                      \
                T d = w[i] - wq[i];                                                      \
                arg[i] = gate_##SUF(FABS(d) * slope, u, d, ms);                          \
                out[i] = lr * u;                                                         \
            }                                                                            \
        }                                                                                \
    }                                                                                    \
                                                                                         \
    int64_t step2_##SUF(int64_t n, int64_t n_levels, const T *restrict w,                \
                        const T *restrict t, T *restrict out, int64_t *restrict moved,   \
                        const double *k, LEVELS(T))                                      \
    {                                                                                    \
        const T one = 1;                                                                 \
        UPDATE(T, SUF, w[i] - out[i] * (one - t[i] * t[i]));                             \
    }                                                                                    \
                                                                                         \
    int64_t step0_##SUF(int64_t n, int64_t n_levels, const T *restrict g, T *restrict m, \
                        T *restrict v, const T *restrict w, T *restrict out,             \
                        int64_t *restrict moved, const double *k, LEVELS(T))             \
    {                                                                                    \
        ADAM_K(T);                                                                       \
        UPDATE(T, SUF, w[i] - lr * ADAM(SUF, i));                                        \
    }

DEFINE_STEP(float, f32, sqrtf, fabsf)
DEFINE_STEP(double, f64, sqrt, fabs)

/* Batch norm and ReLU, train mode. Forward: the column mean and variance of x
 * (BatchNorm.forward's x.mean(axis=0) and x.var(axis=0)), the running
 * statistics, xhat = (x - mu) / sqrt(var + eps) and the ReLU output
 * a = y > 0 ? y : 0 of y = gamma * xhat + beta; mu and den are d scratch
 * values each. Backward: dy = delta * (a > 0), dgamma and dbeta, and dx
 * through the batch statistics as BatchNorm.backward computes it; m1, m2 and
 * inv are d scratch values each.
 *
 * Both return 1, having changed no state, where an input is not finite (in
 * forward: a mean, a variance or a parameter; that covers every x), and 0
 * when done. Where two NaNs of different bits meet in an add or a multiply,
 * numpy keeps one or the other depending on the array length, so only numpy
 * can give its own bits there; finite inputs make NaNs only of the one
 * default kind, which any order keeps. The checks of per-column values
 * return from inside their loop, which keeps those short loops scalar and
 * the build short. */
#define DEFINE_BN(T, SUF, SQRT, FABS, BIG)                                               \
    int64_t bn_forward_##SUF(int64_t n, int64_t d, const T *restrict x,                  \
                          const T *restrict gamma, const T *restrict beta,               \
                          T *restrict running_mean, T *restrict running_var,             \
                          T *restrict var, T *restrict xhat, T *restrict a,              \
                          T *restrict mu, T *restrict den, double eps_,                  \
                          double momentum_, double unbias_)                              \
    {                                                                                    \
        const T eps = eps_, momentum = momentum_, unbias = unbias_, zero = 0;            \
        for (int64_t j = 0; j < d; j++)                                                  \
            mu[j] = var[j] = 0;                                                          \
        for (int64_t i = 0; i < n; i++)                                                  \
            for (int64_t j = 0; j < d; j++)                                              \
                mu[j] = mu[j] + x[i * d + j];                                            \
        for (int64_t j = 0; j < d; j++) {                                                \
            mu[j] = (T)((double)mu[j] / (double)n);                                      \
            if (!(FABS(mu[j]) <= BIG))                                                   \
                return 1;                                                                \
        }                                                                                \
        for (int64_t i = 0; i < n; i++)                                                  \
            for (int64_t j = 0; j < d; j++) {                                            \
                T c = x[i * d + j] - mu[j];                                              \
                var[j] = var[j] + c * c;                                                 \
            }                                                                            \
        for (int64_t j = 0; j < d; j++) {                                                \
            var[j] = (T)((double)var[j] / (double)n);                                    \
            if (!((FABS(var[j]) <= BIG) & (FABS(gamma[j]) <= BIG) &                      \
                  (FABS(beta[j]) <= BIG) & (FABS(running_mean[j]) <= BIG) &              \
                  (FABS(running_var[j]) <= BIG)))                                        \
                return 1;                                                                \
        }                                                                                \
        for (int64_t j = 0; j < d; j++) {                                                \
            T v = var[j];                                                                \
            den[j] = SQRT(v + eps);                                                      \
            running_mean[j] = running_mean[j] + momentum * (mu[j] - running_mean[j]);    \
            running_var[j] = running_var[j] + momentum * (v * unbias - running_var[j]);  \
        }                                                                                \
        for (int64_t i = 0; i < n; i++)                                                  \
            for (int64_t j = 0; j < d; j++) {                                            \
                T h = (x[i * d + j] - mu[j]) / den[j];                                   \
                T y = gamma[j] * h + beta[j];                                            \
                xhat[i * d + j] = h;                                                     \
                a[i * d + j] = y > zero ? y : zero;                                      \
            }                                                                            \
        return 0;                                                                        \
    }                                                                                    \
                                                                                         \
    int64_t bn_backward_##SUF(int64_t n, int64_t d, const T *restrict delta,             \
                           const T *restrict a, const T *restrict xhat,                  \
                           const T *restrict var, const T *restrict gamma,               \
                           T *restrict dx, T *restrict dgamma, T *restrict dbeta,        \
                           T *restrict m1, T *restrict m2, T *restrict inv, double eps_) \
    {                                                                                    \
        const T eps = eps_, zero = 0, one = 1;                                           \
        for (int64_t j = 0; j < d; j++)                                                  \
            dgamma[j] = dbeta[j] = m1[j] = m2[j] = 0;                                    \
        int ok = 1;                                                                      \
        for (int64_t i = 0; i < n; i++)                                                  \
            for (int64_t j = 0; j < d; j++) {                                            \
                const T dr = delta[i * d + j], hr = xhat[i * d + j];                     \
                ok &= (FABS(dr) <= BIG) & (FABS(hr) <= BIG);                             \
                T dy = dr * (T)(a[i * d + j] > zero);                                    \
                T dxh = dy * gamma[j];                                                   \
                dgamma[j] = dgamma[j] + dy * hr;                                         \
                dbeta[j] = dbeta[j] + dy;                                                \
                m1[j] = m1[j] + dxh;                                                     \
                m2[j] = m2[j] + dxh * hr;                                                \
            }                                                                            \
        if (!ok)                                                                         \
            return 1;                                                                    \
        for (int64_t j = 0; j < d; j++) {                                                \
            if (!((FABS(gamma[j]) <= BIG) & (FABS(var[j]) <= BIG)))                      \
                return 1;                                                                \
            m1[j] = (T)((double)m1[j] / (double)n);                                      \
            m2[j] = (T)((double)m2[j] / (double)n);                                      \
            inv[j] = one / SQRT(var[j] + eps);                                           \
        }                                                                                \
        for (int64_t i = 0; i < n; i++)                                                  \
            for (int64_t j = 0; j < d; j++) {                                            \
                const int64_t k = i * d + j;                                             \
                T dxh = (delta[k] * (T)(a[k] > zero)) * gamma[j];                        \
                dx[k] = inv[j] * ((dxh - m1[j]) - xhat[k] * m2[j]);                      \
            }                                                                            \
        return 0;                                                                        \
    }

DEFINE_BN(float, f32, sqrtf, fabsf, FLT_MAX)
DEFINE_BN(double, f64, sqrt, fabs, DBL_MAX)
