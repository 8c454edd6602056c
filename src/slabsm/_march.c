/* The Level-1 march of slabsm (sweep.py): every group and direction of one
 * problem swept between vacuum boundaries in one call.
 *
 * Lane l = g*M + d is group g and direction d, of sigma_t[g] and
 * m = mabs[d] = |mu|; the M/2 directions mu < 0 come first, and each
 * marches the mirrored slab, so at step i it meets cell N-1-i.  The rows
 * 3m + sd, m + sd and det = 6m^2 + 4m*sd + sd^2, sd = sigma_t*dx, are
 * formed at step 0 and again at each step whose pair of widths
 * (dx[i], dx[N-1-i]) differs from the step before's: once a sweep on a
 * uniform mesh.  rhs is (G, Ms, N, 2), Ms = 1 for a source shared by
 * every direction and M otherwise; psi is (G, M, N, 2), every entry
 * written.  Each operation is one IEEE rounding in the order written:
 * build with -ffp-contract=off, so that no multiply and add fuse.
 * Returns 0, or -1 if the work rows cannot be allocated. */

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
