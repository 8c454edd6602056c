/* The compiled library of slabsm (sweep.py): the Level-1 march, and the
 * hand-off of its psi to the low-order levels (losm.py).  Each operation
 * is one IEEE rounding in the order written, and each sum over the
 * directions runs in order from 0.0, as numpy's einsum sums them: build
 * with -ffp-contract=off, so that no multiply and add fuse, and without
 * -ffast-math, which would let the compiler reorder the sums.
 *
 * slabsm_march sweeps every group and direction of one problem between
 * vacuum boundaries in one call.  Lane l = g*M + d is group g and
 * direction d, of sigma_t[g] and m = mabs[d] = |mu|; the M/2 directions
 * mu < 0 come first, and each marches the mirrored slab, so at step i it
 * meets cell N-1-i.  The lanes march in blocks of up to LANES directions
 * of one group and one half, each block over all N cells, so every lane
 * of a block meets the same cell at each step and writes its own psi row
 * in cell order.  A block's rows 3m + sd, m + sd and
 * det = 6m^2 + 4m*sd + sd^2, sd = sigma_t*dx, are formed at its first
 * cell and again wherever the width differs from the cell before's in
 * its half's order: once a block on a uniform mesh.  For a given lane
 * they depend on the cell's width alone, so they are the rows that a
 * formation at every step would give.  rhs is the isotropic source
 * (G, N, 2), read by every direction of its group; psi is (G, M, N, 2),
 * every entry written.
 *
 * slabsm_closure and slabsm_closure_terms build the closures
 * (losm.ClosureData) of K sweeps, the leading axes of psi flattened.
 *
 * The Level-2/3 arithmetic follows them: slabsm_zeta,
 * slabsm_scattering_xs, slabsm_ho_rhs and slabsm_grey_xs form the
 * coupling correction, the averaged cross sections, the sweep source and
 * the grey coefficients; slabsm_group_rhs, slabsm_group_residual and
 * slabsm_grey_system the group right sides, the AA(1) residual and the
 * grey band and right side. */

#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* the directions of one block of the march, whose lane loops are
 * vectorised (sweep._FLAGS), each lane's arithmetic in the order written;
 * four ran slower on test1 and test2, sixteen no faster */
#define LANES 8

/* Marches the n <= LANES directions mabs[0..n) of one group (of total
 * cross section sigma_t, source rhs (N, 2)) over the N cells from the
 * vacuum edge, writing their psi rows (n, N, 2).  A mirrored block meets
 * the cells from N-1 down, forms dx*q_slope as q_slope*(-dx) and writes
 * its slopes as s*(-1.0); a forward block writes s*1.0, which is s. */
static void march_block(ptrdiff_t N, ptrdiff_t n, int mirror, double sigma_t,
                        const double *restrict mabs,
                        const double *restrict dx,
                        const double *restrict rhs, double *restrict psi)
{
    /* inflow trace y per lane, zero at the vacuum edge, and the rows */
    double m[LANES], y[LANES], c0[LANES], c1[LANES], det[LANES];
    double sign = mirror ? -1.0 : 1.0;
    for (ptrdiff_t b = 0; b < n; b++) {
        m[b] = mabs[b];
        y[b] = 0.0;
    }
    for (ptrdiff_t i = 0; i < N; i++) {
        ptrdiff_t cell = mirror ? N - 1 - i : i;
        double w = dx[cell];
        if (i == 0 || w != dx[mirror ? cell + 1 : cell - 1]) {
            double sd = sigma_t * w;
            for (ptrdiff_t b = 0; b < n; b++) {
                c0[b] = 3.0 * m[b] + sd;
                c1[b] = m[b] + sd;
                det[b] = 6.0 * (m[b] * m[b]) + (4.0 * m[b]) * sd + sd * sd;
            }
        }
        const double *u = rhs + cell * 2;
        double ua = u[0] * w, us = u[1] * (mirror ? -w : w);
        double *p = psi + cell * 2;
        for (ptrdiff_t b = 0; b < n; b++) {
            double mb = m[b], m3 = 3.0 * mb;
            double qa = ua + mb * y[b];
            double qs = us + -m3 * y[b];
            double a = (c0[b] * qa + -mb * qs) / det[b];
            double s = (c1[b] * qs + m3 * qa) / det[b];
            p[b * N * 2] = a;
            p[b * N * 2 + 1] = s * sign;
            y[b] = a + s;
        }
    }
}

void slabsm_march(ptrdiff_t G, ptrdiff_t M, ptrdiff_t N,
                  const double *restrict sigma_t,
                  const double *restrict mabs, const double *restrict dx,
                  const double *restrict rhs, double *restrict psi)
{
    ptrdiff_t h = M / 2;
    for (ptrdiff_t g = 0; g < G; g++) {
        for (int mirror = 1; mirror >= 0; mirror--) {
            ptrdiff_t end = mirror ? h : M;
            for (ptrdiff_t d = mirror ? 0 : h; d < end; d += LANES)
                march_block(N, end - d < LANES ? end - d : LANES, mirror,
                            sigma_t[g], mabs + d, dx, rhs + g * N * 2,
                            psi + (g * M + d) * N * 2);
        }
    }
}

/* The edge closure functionals of K sweeps psi (K, M, N, 2) with LD
 * moments phi and J (K, N, 2): out (3, K, N+1) holds dJ, dphi and Phat,
 * every entry written.  The upwind trace on edge e is a + s of cell e-1
 * for mu > 0 (the second half) and a - s of cell e for mu < 0, 0.0 at
 * the vacuum edge it enters by; the edge moments sum weights[k][d] times
 * it over the directions d in order from 0.0.  The zero traces are summed
 * too, as numpy sums them: w*0.0 is -0.0 for a negative weight, and
 * -0.0 + (+0.0) is +0.0.  The reconstruction of edge e from the traces
 * t0..t3 (phi and J of the cell left of it, then of the cell right of it,
 * 0.0 outside the slab) by the edge table edges (N+1, 2, 4) is
 * ((w0 t0 + w1 t1) + w2 t2) + w3 t3, row 0 for J^ and row 1 for phi^; dJ
 * and dphi are the edge moments J and phi minus it, and Phat the edge
 * moment P.  Directions outside and edges inside keep each edge's sum in
 * order. */
void slabsm_closure(ptrdiff_t K, ptrdiff_t M, ptrdiff_t N,
                    const double *restrict psi, const double *restrict phi,
                    const double *restrict J,
                    const double *restrict weights,
                    const double *restrict edges, double *restrict out)
{
    ptrdiff_t h = M / 2, E = N + 1;
    for (ptrdiff_t k = 0; k < K; k++) {
        double *restrict eJ = out + k * E;
        double *restrict ephi = eJ + K * E;
        double *restrict eP = ephi + K * E;
        for (ptrdiff_t e = 0; e < E; e++)
            ephi[e] = eJ[e] = eP[e] = 0.0;
        for (ptrdiff_t d = 0; d < M; d++) {
            const double *p = psi + (k * M + d) * N * 2;
            double w0 = weights[d], w1 = weights[M + d],
                   w2 = weights[2 * M + d];
            if (d < h) {
                /* mu < 0: a - s of cell e on edge e, 0.0 on edge N */
                for (ptrdiff_t e = 0; e < N; e++) {
                    double v = p[2 * e] - p[2 * e + 1];
                    ephi[e] += w0 * v;
                    eJ[e] += w1 * v;
                    eP[e] += w2 * v;
                }
                ephi[N] += w0 * 0.0;
                eJ[N] += w1 * 0.0;
                eP[N] += w2 * 0.0;
            } else {
                /* mu > 0: 0.0 on edge 0, a + s of cell e-1 on edge e */
                ephi[0] += w0 * 0.0;
                eJ[0] += w1 * 0.0;
                eP[0] += w2 * 0.0;
                for (ptrdiff_t e = 1; e < E; e++) {
                    double v = p[2 * e - 2] + p[2 * e - 1];
                    ephi[e] += w0 * v;
                    eJ[e] += w1 * v;
                    eP[e] += w2 * v;
                }
            }
        }
        const double *f = phi + k * N * 2, *j = J + k * N * 2;
        for (ptrdiff_t e = 0; e < E; e++) {
            double t0 = 0.0, t1 = 0.0, t2 = 0.0, t3 = 0.0;
            if (e > 0) {
                t0 = f[2 * e - 2] + f[2 * e - 1];
                t1 = j[2 * e - 2] + j[2 * e - 1];
            }
            if (e < N) {
                t2 = f[2 * e] - f[2 * e + 1];
                t3 = j[2 * e] - j[2 * e + 1];
            }
            const double *w = edges + e * 8;
            eJ[e] = eJ[e] - (((w[0] * t0 + w[1] * t1) + w[2] * t2)
                             + w[3] * t3);
            ephi[e] = ephi[e] - (((w[4] * t0 + w[5] * t1) + w[6] * t2)
                                 + w[7] * t3);
        }
    }
}

/* The closure terms of the low-order right sides of K closures on cells
 * of widths dx (N,): terms (K, N, 4), one column per cell row, from dJ,
 * dphi and Phat (K, N+1) and P (K, N, 2), every entry written. */
void slabsm_closure_terms(ptrdiff_t K, ptrdiff_t N,
                          const double *restrict dJ,
                          const double *restrict dphi,
                          const double *restrict Phat,
                          const double *restrict P,
                          const double *restrict dx, double *restrict terms)
{
    for (ptrdiff_t k = 0; k < K; k++) {
        const double *a = dJ + k * (N + 1), *f = dphi + k * (N + 1),
                     *q = Phat + k * (N + 1), *p = P + k * N * 2;
        double *c = terms + k * N * 4;
        for (ptrdiff_t i = 0; i < N; i++) {
            double w = dx[i];
            c[4 * i] = (a[i + 1] - a[i]) / w;
            c[4 * i + 1] = (3.0 * (a[i + 1] + a[i])) / w;
            c[4 * i + 2] = ((q[i + 1] - q[i]) - (f[i + 1] - f[i]) / 3.0) / w;
            c[4 * i + 3] = ((3.0 * (q[i + 1] + q[i]) - 6.0 * p[2 * i])
                            - (f[i + 1] + f[i])) / w;
        }
    }
}

/* The Level-2/3 arithmetic (losm.py, and sweep.build_ho_rhs), each
 * function one call per use, bit for bit as the numpy formulas it
 * replaced.  An LD pair (a, s) has the cell-edge values a - s and a + s,
 * and the pair of edge values (l, r) is ((l + r) * 0.5, (r - l) * 0.5);
 * an LD product multiplies the edge values.  Group fields are
 * (G, N, 2).  Every sum over the groups runs in order from +0.0, as
 * numpy's einsum sums products and its sum(axis=0) the values themselves
 * (so -0.0 values sum to +0.0); the loops over the groups are outside
 * the loops over the cells, which then run over contiguous rows and
 * reorder no sum.  A ratio whose denominator has |d| < DENOM_EPS takes
 * its fallback; a NaN denominator divides, giving NaN. */

#define DENOM_EPS 1e-30

static double ratio(double num, double den, double fallback)
{
    return fabs(den) < DENOM_EPS ? fallback : num / den;
}

/* the left (e = 0) or right (e = 1) edge value of the LD pair p */
static double edge(const double *p, int e)
{
    return e ? p[0] + p[1] : p[0] - p[1];
}

/* the LD pair of edge values l and r, written to out[0], out[1] */
static void from_edges(double l, double r, double *out)
{
    out[0] = (l + r) * 0.5;
    out[1] = (r - l) * 0.5;
}

/* c[i * stride + k] = sum_h w[h] phi[h][i][k] for the N cells i and the
 * two coefficients k of the fields phi (G, N, 2); w NULL weighs each
 * field by 1, adding the values themselves */
static void group_sums(ptrdiff_t G, ptrdiff_t N, const double *w,
                       const double *restrict phi, ptrdiff_t stride,
                       double *restrict c)
{
    for (ptrdiff_t i = 0; i < N; i++)
        c[i * stride] = c[i * stride + 1] = 0.0;
    for (ptrdiff_t h = 0; h < G; h++) {
        const double *p = phi + h * N * 2;
        if (w == NULL) {
            for (ptrdiff_t i = 0; i < N; i++) {
                c[i * stride] += p[2 * i];
                c[i * stride + 1] += p[2 * i + 1];
            }
        } else {
            double wh = w[h];
            for (ptrdiff_t i = 0; i < N; i++) {
                c[i * stride] += wh * p[2 * i];
                c[i * stride + 1] += wh * p[2 * i + 1];
            }
        }
    }
}

/* zeta (N, 2): grey_phi / sum_g phi_g at the edge values, 1.0 where the
 * sum vanishes (losm.compute_zeta).  The sums are formed in zeta. */
void slabsm_zeta(ptrdiff_t G, ptrdiff_t N, const double *restrict grey_phi,
                 const double *restrict phi, double *restrict zeta)
{
    group_sums(G, N, NULL, phi, 2, zeta);
    for (ptrdiff_t i = 0; i < N; i++) {
        const double *f = grey_phi + 2 * i;
        double *z = zeta + 2 * i;
        from_edges(ratio(edge(f, 0), edge(z, 0), 1.0),
                   ratio(edge(f, 1), edge(z, 1), 1.0), z);
    }
}

/* sbar_s (G, N, 2): sum_h sigma_s[g][h] phi_h / sum_h phi_h at the edge
 * values, fallback[g] (the mean of row g) where the sum vanishes
 * (losm.avg_scattering_xs).  The numerators are formed in sbar_s. */
void slabsm_scattering_xs(ptrdiff_t G, ptrdiff_t N,
                          const double *restrict sigma_s,
                          const double *restrict fallback,
                          const double *restrict phi,
                          double *restrict sbar_s)
{
    for (ptrdiff_t g = 0; g < G; g++)
        group_sums(G, N, sigma_s + g * G, phi, 2, sbar_s + g * N * 2);
    for (ptrdiff_t i = 0; i < N; i++) {
        double d[2] = {0.0, 0.0};
        for (ptrdiff_t h = 0; h < G; h++) {
            d[0] += phi[(h * N + i) * 2];
            d[1] += phi[(h * N + i) * 2 + 1];
        }
        for (ptrdiff_t g = 0; g < G; g++) {
            double *c = sbar_s + (g * N + i) * 2;
            from_edges(ratio(edge(c, 0), edge(d, 0), fallback[g]),
                       ratio(edge(c, 1), edge(d, 1), fallback[g]), c);
        }
    }
}

/* The isotropic sweep sources rhs (G, N, 2), 0.5 * (sbar_s grey_phi) +
 * 0.5 * Q[g] on the averages, the product at the edge values
 * (sweep.build_ho_rhs). */
void slabsm_ho_rhs(ptrdiff_t G, ptrdiff_t N, const double *restrict sbar_s,
                   const double *restrict grey_phi, const double *restrict Q,
                   double *restrict rhs)
{
    for (ptrdiff_t g = 0; g < G; g++) {
        double q = 0.5 * Q[g];
        for (ptrdiff_t i = 0; i < N; i++) {
            const double *c = sbar_s + (g * N + i) * 2, *f = grey_phi + 2 * i;
            double p[2], *out = rhs + (g * N + i) * 2;
            from_edges(edge(c, 0) * edge(f, 0), edge(c, 1) * edge(f, 1), p);
            out[0] = 0.5 * p[0] + q;
            out[1] = 0.5 * p[1];
        }
    }
}

/* The grey coefficients out (4, N, 2): sbar_a, sbar_t, eta and Q
 * (losm.grey_xs), from consts [sigma_a (G), sigma_t (G), the means of
 * sigma_a and of sigma_t, the sum of Q].  At each edge value, with
 * phi_g, J_g the groups' values there and Phi their sum:
 *   sbar_a = sum sigma_a,g phi_g / Phi, else the mean of sigma_a;
 *   sbar_t = sum sigma_t,g |J_g| / sum |J_g|, else sum sigma_t,g phi_g
 *            / Phi, else the mean of sigma_t;
 *   eta    = sum (sigma_t,g - sbar_t) J_g / Phi, else 0.0.
 * Q is (sum of Q, 0.0) on every cell. */
void slabsm_grey_xs(ptrdiff_t G, ptrdiff_t N, const double *restrict consts,
                    const double *restrict phi, const double *restrict J,
                    double *restrict out)
{
    const double *sigma_a = consts, *sigma_t = consts + G;
    double mean_a = consts[2 * G], mean_t = consts[2 * G + 1];
    double *sbar_a = out, *sbar_t = out + 2 * N, *eta = out + 4 * N,
           *Q = out + 6 * N;
    for (ptrdiff_t i = 0; i < N; i++) {
        double v[3][2];
        for (int e = 0; e < 2; e++) {
            double den = 0.0, absJ = 0.0, na = 0.0, nt = 0.0;
            for (ptrdiff_t g = 0; g < G; g++) {
                double f = edge(phi + (g * N + i) * 2, e);
                double j = fabs(edge(J + (g * N + i) * 2, e));
                den += f;
                absJ += j;
                na += sigma_a[g] * f;
                nt += sigma_t[g] * j;
            }
            double st;
            if (fabs(absJ) < DENOM_EPS) {
                double np = 0.0;
                for (ptrdiff_t g = 0; g < G; g++)
                    np += sigma_t[g] * edge(phi + (g * N + i) * 2, e);
                st = ratio(np, den, mean_t);
            } else {
                st = nt / absJ;
            }
            double en = 0.0;
            for (ptrdiff_t g = 0; g < G; g++)
                en += (sigma_t[g] - st) * edge(J + (g * N + i) * 2, e);
            v[0][e] = ratio(na, den, mean_a);
            v[1][e] = st;
            v[2][e] = ratio(en, den, 0.0);
        }
        from_edges(v[0][0], v[0][1], sbar_a + 2 * i);
        from_edges(v[1][0], v[1][1], sbar_t + 2 * i);
        from_edges(v[2][0], v[2][1], eta + 2 * i);
        Q[2 * i] = consts[2 * G + 2];
        Q[2 * i + 1] = 0.0;
    }
}

/* The right sides b (G, N, 4) of the group passes, one column per cell
 * row: S - terms in rows 0-1 and the closure terms (G, N, 4) in rows
 * 2-3.  The coupling sums c of group g (the pairs sum_h coupling[g][h]
 * phi_h) are formed in b; S is zeta times c at the edge values, plus
 * Q[g] on the average and 0.0 on the slope. */
void slabsm_group_rhs(ptrdiff_t G, ptrdiff_t N,
                      const double *restrict coupling,
                      const double *restrict Q, const double *restrict phi,
                      const double *restrict zeta,
                      const double *restrict terms, double *restrict b)
{
    for (ptrdiff_t g = 0; g < G; g++) {
        group_sums(G, N, coupling + g * G, phi, 4, b + g * N * 4);
        for (ptrdiff_t i = 0; i < N; i++) {
            double *out = b + (g * N + i) * 4;
            const double *z = zeta + 2 * i, *t = terms + (g * N + i) * 4;
            double S[2];
            from_edges(edge(out, 0) * edge(z, 0), edge(out, 1) * edge(z, 1),
                       S);
            out[0] = (S[0] + Q[g]) - t[0];
            out[1] = (S[1] + 0.0) - t[1];
            out[2] = t[2];
            out[3] = t[3];
        }
    }
}

/* The residual r = b - A x of the group equations (G, N, 4): b is built
 * in r by slabsm_group_rhs, and x, the unknowns (phi_a, phi_s, J_a, J_s)
 * of each cell from phi and J (G, N, 2), is gathered per group into a
 * work row.  Group g's matrix is in CSR: data[g] (nnz = indptr[4N]
 * entries) on the shared int32 indices and indptr, column-sorted; each
 * row's product sums its stored entries, explicit zeros included, in that
 * order from 0.0 (scipy's CSR product).  Each cell's rows 0-3 are
 * rewritten in the order 0, 2, 1, 3: (phi_a, J_a, phi_s, J_s).  Returns
 * 0, or -1 if the work row cannot be allocated. */
int slabsm_group_residual(ptrdiff_t G, ptrdiff_t N,
                          const double *restrict coupling,
                          const double *restrict Q,
                          const double *restrict data,
                          const int32_t *restrict indices,
                          const int32_t *restrict indptr,
                          const double *restrict phi,
                          const double *restrict J,
                          const double *restrict zeta,
                          const double *restrict terms, double *restrict r)
{
    static const int place[4] = {0, 2, 1, 3};
    ptrdiff_t nnz = indptr[4 * N];
    double *x = malloc((size_t)(4 * N) * sizeof *x);
    if (x == NULL)
        return -1;
    slabsm_group_rhs(G, N, coupling, Q, phi, zeta, terms, r);
    for (ptrdiff_t g = 0; g < G; g++) {
        const double *d = data + g * nnz;
        const double *f = phi + g * N * 2, *j = J + g * N * 2;
        for (ptrdiff_t i = 0; i < N; i++) {
            x[4 * i] = f[2 * i];
            x[4 * i + 1] = f[2 * i + 1];
            x[4 * i + 2] = j[2 * i];
            x[4 * i + 3] = j[2 * i + 1];
        }
        for (ptrdiff_t i = 0; i < N; i++) {
            double *out = r + (g * N + i) * 4;
            double b[4] = {out[0], out[1], out[2], out[3]};
            for (int k = 0; k < 4; k++) {
                const int32_t *row = indptr + 4 * i + k;
                double s = 0.0;
                for (int32_t jj = row[0]; jj < row[1]; jj++)
                    s += d[jj] * x[indices[jj]];
                out[place[k]] = b[k] - s;
            }
        }
    }
    free(x);
    return 0;
}

/* The grey system in band storage: ab (4N, width), C-ordered, is the
 * stencil band plus, at the n_mass positions mass_pos, the coefficient
 * coef_index of the block coeffs (4, N, 2) = [sbar_a, sbar_t, eta, Q],
 * index 6N standing for 0.0, one addition each; b (4N) is Q - terms in
 * rows 0-1 and the closure terms (N, 4) in rows 2-3
 * (LowOrderSystem.solve_grey).  Returns 1 if one of the first 6N
 * coefficients is not finite, else 0. */
int slabsm_grey_system(ptrdiff_t N, ptrdiff_t width, ptrdiff_t n_mass,
                       const double *restrict stencil,
                       const int64_t *restrict mass_pos,
                       const int64_t *restrict coef_index,
                       const double *restrict coeffs,
                       const double *restrict terms, double *restrict ab,
                       double *restrict b)
{
    const double *Q = coeffs + 6 * N;
    memcpy(ab, stencil, (size_t)(4 * N * width) * sizeof *ab);
    for (ptrdiff_t k = 0; k < n_mass; k++) {
        int64_t c = coef_index[k];
        ab[mass_pos[k]] += c < 6 * N ? coeffs[c] : 0.0;
    }
    int bad = 0;
    for (ptrdiff_t c = 0; c < 6 * N; c++)
        bad |= !isfinite(coeffs[c]);
    for (ptrdiff_t i = 0; i < N; i++) {
        const double *t = terms + 4 * i;
        b[4 * i] = Q[2 * i] - t[0];
        b[4 * i + 1] = Q[2 * i + 1] - t[1];
        b[4 * i + 2] = t[2];
        b[4 * i + 3] = t[3];
    }
    return bad;
}
