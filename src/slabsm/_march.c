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
 * meets cell N-1-i.  The rows 3m + sd, m + sd and
 * det = 6m^2 + 4m*sd + sd^2, sd = sigma_t*dx, are formed at step 0 and
 * again at each step whose pair of widths (dx[i], dx[N-1-i]) differs
 * from the step before's: once a sweep on a uniform mesh.  rhs is
 * (G, Ms, N, 2), Ms = 1 for a source shared by every direction and M
 * otherwise; psi is (G, M, N, 2), every entry written.  Returns 0, or -1
 * if the work rows cannot be allocated.
 *
 * slabsm_closure and slabsm_closure_terms build the closures
 * (losm.ClosureData) of K sweeps, the leading axes of psi flattened. */

#include <stddef.h>
#include <stdlib.h>

int slabsm_march(ptrdiff_t G, ptrdiff_t M, ptrdiff_t Ms, ptrdiff_t N,
                 const double *sigma_t, const double *mabs, const double *dx,
                 const double *rhs, double *psi)
{
    ptrdiff_t L = G * M, h = M / 2;
    /* inflow trace y per lane, zero at the vacuum edge, and the rows */
    double *y = calloc((size_t)(4 * L), sizeof *y);
    if (y == NULL)
        return -1;
    double *c0 = y + L, *c1 = c0 + L, *det = c1 + L;
    for (ptrdiff_t i = 0; i < N; i++) {
        if (i == 0 || dx[i] != dx[i - 1] || dx[N - 1 - i] != dx[N - i]) {
            for (ptrdiff_t g = 0; g < G; g++) {
                for (ptrdiff_t d = 0; d < M; d++) {
                    ptrdiff_t l = g * M + d;
                    double m = mabs[d];
                    double sd = sigma_t[g] * dx[d < h ? N - 1 - i : i];
                    c0[l] = 3.0 * m + sd;
                    c1[l] = m + sd;
                    det[l] = 6.0 * (m * m) + (4.0 * m) * sd + sd * sd;
                }
            }
        }
        for (ptrdiff_t g = 0; g < G; g++) {
            for (ptrdiff_t d = 0; d < M; d++) {
                /* mu < 0 meets cell N-1-i, with its slopes negated */
                int mirror = d < h;
                ptrdiff_t cell = mirror ? N - 1 - i : i;
                ptrdiff_t l = g * M + d;
                const double *u = rhs + ((g * Ms + (Ms == 1 ? 0 : d)) * N
                                         + cell) * 2;
                double w = dx[cell], m = mabs[d], m3 = 3.0 * m;
                double ua = u[0] * w, us = u[1] * (mirror ? -w : w);
                double qa = ua + m * y[l];
                double qs = us + -m3 * y[l];
                double a = (c0[l] * qa + -m * qs) / det[l];
                double s = (c1[l] * qs + m3 * qa) / det[l];
                double *p = psi + ((g * M + d) * N + cell) * 2;
                p[0] = a;
                p[1] = mirror ? s * -1.0 : s;
                y[l] = a + s;
            }
        }
    }
    free(y);
    return 0;
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
