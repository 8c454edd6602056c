/* The Level-1 march of slabsm (sweep.py): every group and direction of one
 * problem swept between vacuum boundaries in one call.
 *
 * Lane l = g*M + d is group g and direction d; the M/2 directions mu < 0
 * come first, and each marches the mirrored slab, so at step i it meets
 * cell N-1-i.  coef holds R rows of 7 x L coefficients (march_coefficients):
 * m, -3m, 3m + sd, m + sd, -m, 3m and det, each on L lanes, and step i
 * reads row row[i].  rhs is (G, Ms, N, 2), Ms = 1 for a source shared by
 * every direction and M otherwise; psi is (G, M, N, 2), every entry
 * written.  Each operation is one IEEE rounding in the order written:
 * build with -ffp-contract=off, so that no multiply and add fuse.
 * Returns 0, or -1 if the inflow traces cannot be allocated. */

#include <stddef.h>
#include <stdlib.h>

int slabsm_march(ptrdiff_t G, ptrdiff_t M, ptrdiff_t Ms, ptrdiff_t N,
                 const ptrdiff_t *row, const double *dx, const double *coef,
                 const double *rhs, double *psi)
{
    ptrdiff_t L = G * M, h = M / 2;
    double *y = calloc((size_t)L, sizeof *y);  /* inflow trace per lane */
    if (y == NULL)
        return -1;
    for (ptrdiff_t i = 0; i < N; i++) {
        const double *m = coef + row[i] * 7 * L, *m3 = m + L, *c0 = m3 + L,
                     *c1 = c0 + L, *c2 = c1 + L, *c3 = c2 + L, *det = c3 + L;
        for (ptrdiff_t g = 0; g < G; g++) {
            for (ptrdiff_t d = 0; d < M; d++) {
                /* mu < 0 meets cell N-1-i, with its slopes negated */
                int mirror = d < h;
                ptrdiff_t cell = mirror ? N - 1 - i : i;
                ptrdiff_t l = g * M + d;
                const double *u = rhs + ((g * Ms + (Ms == 1 ? 0 : d)) * N
                                         + cell) * 2;
                double w = dx[cell];
                double ua = u[0] * w, us = u[1] * (mirror ? -w : w);
                double qa = ua + m[l] * y[l];
                double qs = us + m3[l] * y[l];
                double a = (c0[l] * qa + c2[l] * qs) / det[l];
                double s = (c1[l] * qs + c3[l] * qa) / det[l];
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
