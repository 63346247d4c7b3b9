/*
 * The plane-sweep join of two kinetic-box batches: the body of
 * repro.geometry.kernels.batch_sweep_join (PSIntersection, paper
 * section IV-D.1), which builds this file and calls it through ctypes.
 *
 * Every floating-point operation is the one the NumPy formulation of the
 * join performs, in the same order and association, so the rows come
 * back bit for bit (that formulation lives with the tests as the
 * oracle).  That needs IEEE double arithmetic without contraction:
 * build with -ffp-contract=off and never with -ffast-math.  Where NumPy
 * or Python semantics differ from C's (NaN-propagating minimum and
 * maximum, the pairwise summation of a reduction, Python's max/min and
 * float power) the helpers below spell them out.
 *
 * The caller owns every buffer: the workspaces are sized by the caller
 * for this call, and the state slots let a call that fills its output
 * return early and be resumed where it stopped (see sweep_join).
 */

#include <math.h>
#include <stddef.h>
#include <stdint.h>

typedef int64_t i64;

/* One side's columns, stacked in one array at a fixed stride: per axis
 * the MBR and VBR bounds, the MBR pre-shifted to reference time 0, then
 * t_ref (kernels.stack_planes names the same rows). */
enum { MLO = 0, MHI = 2, VLO = 4, VHI = 6, SLO = 8, SHI = 10, TREF = 12, COLUMNS = 13 };

/* Candidates are filtered BLOCK at a time, without a branch on each
 * outcome, and the pairs that pass every filter queue up to QUEUE at a
 * time for the exact test: queued, their rows' columns are prefetched,
 * so the cache misses of a batch overlap instead of following one
 * another.  A block starts only with room in the output for the queue
 * and all of it.  Both are measured against the plain loop (a branch on
 * each candidate, each survivor exact-tested at once): on a 2-vCPU
 * x86-64 host the sparse-serial end-to-end step p50 reads 5.22 against
 * 5.57 ms, and the block without the queue sits between the two
 * (DESIGN section 5.1). */
enum { QUEUE = 32, BLOCK = 256, ROOM = QUEUE + BLOCK };
/* The pack fetches the slot of the row PACK_AHEAD ahead for writing
 * (without it the scattered slots cost a tick twice the time); the
 * packed rows start on a LINE-byte boundary, two to a line. */
enum { PACK_AHEAD = 16, LINE = 64 };

/* The int64 buffer: parameters, then state, then the exact-test queue
 * (QUEUE p rows, then their QUEUE q rows), then the workspace. */
enum { I_NA, I_NB, I_STRIDE_A, I_STRIDE_B, I_DIM, I_GRIDDED, I_MAX_CELLS,
       S_PHASE, S_Q, S_SEG, S_POS, S_ENUMERATED, S_TESTED, S_NX, S_NY, S_QUEUED,
       I_QUEUE, I_WORK = I_QUEUE + 2 * QUEUE };
/* The double buffer: parameters, then state, then the workspace. */
enum { F_T0, F_T1, F_SLACK, F_PAD = F_SLACK + 2, F_EPS = F_PAD + 2, F_CELLS_PER_SPAN,
       F_ROWS_PER_CELL, F_OVERSIZE, F_MAX_AXIS,
       G_ORIGIN, G_INV = G_ORIGIN + 2, G_REACH = G_INV + 2, F_WORK = G_REACH + 2 };
enum { FRESH = 0, BUILT = 1, DONE = 2 };

/* np.minimum / np.maximum: NaN in either operand wins; a tie takes the
 * second operand (the sign of zero NumPy's loops return).  Written so
 * the compiler can use minsd/maxsd: which operand wins is data. */
static inline double np_min(double a, double b)
{
    double m = a < b ? a : b;
    return a != a ? a : m;
}
static inline double np_max(double a, double b)
{
    double m = a > b ? a : b;
    return a != a ? a : m;
}
/* Python's max(a, b) / min(a, b): the first operand unless the second
 * compares strictly beyond it. */
static inline double py_max(double a, double b) { return b > a ? b : a; }
static inline double py_min(double a, double b) { return b < a ? b : a; }

/* Swept bounds over [t0, end] of a row with these MBR and VBR bounds on
 * one axis: mbr + vbr * (t - t_ref) at both ends.  An infinite end (only
 * ever the scalar window end) makes every outward-moving bound infinite. */
static inline void swept(double tref, double mlo, double mhi, double vlo, double vhi, double t0,
                         double end, double *lb, double *ub)
{
    double dt = t0 - tref;
    double l = vlo * dt + mlo, u = vhi * dt + mhi;
    if (end == INFINITY) {
        if (!(vlo >= 0.0)) l = -INFINITY;
        if (!(vhi <= 0.0)) u = INFINITY;
    } else {
        dt = end - tref;
        l = np_min(l, vlo * dt + mlo);
        u = np_max(u, vhi * dt + mhi);
    }
    *lb = l;
    *ub = u;
}

/* The swept bounds of row r of columns c on one axis. */
static inline void sweep_bounds(const double *const *c, i64 r, int axis, double t0,
                                double end, double *lb, double *ub)
{
    swept(c[TREF][r], c[MLO + axis][r], c[MHI + axis][r], c[VLO + axis][r], c[VHI + axis][r],
          t0, end, lb, ub);
}

/* The scalar sweep's candidate rule: the row with the lower lb pivots
 * (side a on ties) and takes a partner whose lb its ub reaches. */
static inline int sweep_partners(double lb_p, double ub_p, double lb_q, double ub_q, int q_is_a)
{
    int q_pivots = (lb_q < lb_p) | (q_is_a & (lb_q == lb_p));
    return (q_pivots & (lb_p <= ub_q)) | (!q_pivots & (lb_q <= ub_p));
}

/* c + m*t <= 0 tightens [lo, hi]; a bound moves only where the root is
 * strictly inward.  Returns 0 where a flat constraint rejects. */
static inline int clamp(double c, double m, double eps, double *lo, double *hi)
{
    double root = -c / m;
    if (m > 0.0 && root < *hi) *hi = root;
    if (m < 0.0 && root > *lo) *lo = root;
    return m != 0.0 || c <= eps;
}

/* The exact window of a[i] x b[j] over [t0, until]; 0 if they never meet. */
static inline int pair_window(const double *const *a, i64 i, const double *const *b, i64 j,
                              double t0, double until, double eps, double *lo_out,
                              double *hi_out)
{
    double lo = t0, hi = until;
    int ok = 1;
    for (int d = 0; d < 2; d++) {
        ok &= clamp(a[SLO + d][i] - b[SHI + d][j], a[VLO + d][i] - b[VHI + d][j], eps, &lo, &hi);
        ok &= clamp(b[SLO + d][j] - a[SHI + d][i], b[VLO + d][j] - a[VHI + d][i], eps, &lo, &hi);
    }
    /* A contact at +inf (a subnormal slope's root overflowed) never happens. */
    ok &= lo < INFINITY && lo <= hi;
    *lo_out = lo;
    *hi_out = hi;
    return ok;
}

/* A binned row as the candidate loop reads it: lb and ub on the sweep
 * axis and the slack-padded lo and hi across it, two to a cache line
 * (the rows' indices are a plane of their own). */
typedef struct { double lb, ub, olo, ohi; } binned;

/* The binned side's swept bounds in planes, row order, per axis: lb[a]
 * and ub[a].  Padded by the axis's slack they are the box the grid bins
 * (corner lb - slack, width (ub + slack) - (lb - slack)); the pack pads
 * the bounds across the sweep axis for the reject. */
typedef struct { double *lb[2], *ub[2]; const double *slack; } planes;

/* A swept range [lb, ub] padded by slack: its lower corner and width. */
static inline double padded_lo(double lb, double slack) { return lb - slack; }
static inline double padded_width(double lb, double ub, double slack)
{
    return (ub + slack) - (lb - slack);
}

static inline double corner(const planes *b, int a, i64 r) { return padded_lo(b->lb[a][r], b->slack[a]); }
static inline double width(const planes *b, int a, i64 r)
{
    return padded_width(b->lb[a][r], b->ub[a][r], b->slack[a]);
}

/*
 * np.add.reduce of axis a's padded widths over rows 0 .. n - 1: NumPy's
 * pairwise sum (8 accumulators, blocks of 128), in its block order.
 */
static double width_sum(const planes *b, int a, i64 from, i64 n)
{
    if (n < 8) {
        double res = 0.0;
        for (i64 k = from; k < from + n; k++) res += width(b, a, k);
        return res;
    }
    if (n <= 128) {
        double r[8];
        i64 k;
        for (int j = 0; j < 8; j++) r[j] = width(b, a, from + j);
        for (k = 8; k < n - (n % 8); k += 8)
            for (int j = 0; j < 8; j++) r[j] += width(b, a, from + k + j);
        double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; k < n; k++) res += width(b, a, from + k);
        return res;
    }
    i64 n2 = n / 2;
    n2 -= n2 % 8;
    return width_sum(b, a, from, n2) + width_sum(b, a, from + n2, n - n2);
}

/* Per axis: the extremes of the padded lower corners and widths and the
 * mean width, as np.mean computes it.  The extremes skip NaN: a NaN
 * corner makes its width NaN, and a NaN width the mean, which alone
 * takes the build off the all-rows path (the sign of a zero extreme
 * changes no decision). */
typedef struct { double lo_min[2], lo_max[2], w_max[2], w_mean[2]; } grid_stats;

static void stats_init(grid_stats *s)
{
    for (int a = 0; a < 2; a++) {
        s->lo_min[a] = INFINITY;
        s->lo_max[a] = s->w_max[a] = -INFINITY;
    }
}

static inline void stats_add(grid_stats *s, int a, double lo, double w)
{
    s->lo_min[a] = lo < s->lo_min[a] ? lo : s->lo_min[a];
    s->lo_max[a] = lo > s->lo_max[a] ? lo : s->lo_max[a];
    s->w_max[a] = w > s->w_max[a] ? w : s->w_max[a];
}

static void stats_mean(grid_stats *s, const planes *b, i64 n)
{
    for (int a = 0; a < 2; a++) s->w_mean[a] = (0.0 + width_sum(b, a, 0, n)) / (double)n;
}

/* Whether a row's padded box is finite: the irregular path's first
 * filter, and with the width limit the test of a row the grid places. */
static inline int finite_row(const planes *b, i64 r)
{
    return isfinite(corner(b, 0, r) + corner(b, 1, r) + width(b, 0, r) + width(b, 1, r));
}

/*
 * The build's one pass over the binned side's columns: each row's swept
 * bounds on both axes into the planes, and the extremes of its padded
 * box into s.
 */
static void bound_rows(const double *const *P, const double *ends, double t0, double t1, i64 n,
                       const planes *b, grid_stats *s)
{
    const double *tref = P[TREF];
    const double *mlo0 = P[MLO], *mhi0 = P[MHI], *vlo0 = P[VLO], *vhi0 = P[VHI];
    const double *mlo1 = P[MLO + 1], *mhi1 = P[MHI + 1], *vlo1 = P[VLO + 1], *vhi1 = P[VHI + 1];
    double *lb0 = b->lb[0], *ub0 = b->ub[0], *lb1 = b->lb[1], *ub1 = b->ub[1];
    const double s0 = b->slack[0], s1 = b->slack[1];
    /* Folded in a local, which the compiler keeps in registers: s could
     * alias the planes. */
    grid_stats acc;
    stats_init(&acc);
    for (i64 r = 0; r < n; r++) {
        double end = ends ? ends[r] : t1, l0, u0, l1, u1;
        swept(tref[r], mlo0[r], mhi0[r], vlo0[r], vhi0[r], t0, end, &l0, &u0);
        swept(tref[r], mlo1[r], mhi1[r], vlo1[r], vhi1[r], t0, end, &l1, &u1);
        lb0[r] = l0, ub0[r] = u0, lb1[r] = l1, ub1[r] = u1;
        stats_add(&acc, 0, padded_lo(l0, s0), padded_width(l0, u0, s0));
        stats_add(&acc, 1, padded_lo(l1, s1), padded_width(l1, u1, s1));
    }
    *s = acc;
}

/* Cell of x along one axis, clipped to [lowest, highest]: every step is
 * monotone non-decreasing in x. */
static inline i64 cell_of(double x, double origin, double inv, i64 shape, i64 lowest, i64 highest)
{
    if (shape == 1) return 0;
    double s = (x - origin) * inv;
    if (s < (double)lowest) s = (double)lowest;
    else if (s > (double)highest) s = (double)highest;
    /* floor(s), for s >= -1: truncation, one down below zero. */
    i64 cell = (i64)s;
    return (double)cell > s ? cell - 1 : cell;
}

/* Cells per axis for `rows` binned boxes: cells_per_span per span of
 * extent, at most max_axis, scaled back (aspect kept) to rows_per_cell. */
static void grid_shape(const double *extent, const double *span, i64 rows, const double *fp,
                       i64 *shape)
{
    double want[2];
    for (int a = 0; a < 2; a++)
        want[a] = py_min(py_max(fp[F_CELLS_PER_SPAN] * extent[a] / span[a], 1.0), fp[F_MAX_AXIS]);
    double budget = py_max((double)rows / fp[F_ROWS_PER_CELL], 1.0);
    if (want[0] * want[1] > budget) {
        double scale = pow(budget / (want[0] * want[1]), 0.5);
        int thin = want[0] <= want[1] ? 0 : 1;
        if (want[thin] * scale < 1.0) {
            want[thin] = 1.0;
            want[1 - thin] = py_min(want[1 - thin], budget);
        } else {
            want[0] *= scale;
            want[1] *= scale;
        }
    }
    shape[0] = (i64)want[0];
    shape[1] = (i64)want[1];
}

/* Copies the rows of src the grid can place to the front of dst, in
 * order: without a limit the finite rows, with one those no wider than
 * it on either axis.  Returns how many it copied. */
static i64 compact(const planes *dst, const planes *src, i64 n, const double *limit)
{
    i64 kept = 0;
    for (i64 r = 0; r < n; r++) {
        if (limit ? !(width(src, 0, r) <= limit[0] && width(src, 1, r) <= limit[1])
                  : !finite_row(src, r))
            continue;
        for (int a = 0; a < 2; a++) {
            dst->lb[a][kept] = src->lb[a][r];
            dst->ub[a][kept] = src->ub[a][r];
        }
        kept++;
    }
    return kept;
}

/*
 * The grid over the n rows of b, whose all-row extremes s holds: a
 * uniform grid over the slack-padded swept boxes, each row's cell by
 * its lower corner, non-finite or oversize rows in an overflow cell
 * after the last.  Writes nx/ny (left 0 for the one-cell case: nothing
 * binned, nothing sorted), origin, inv and reach into the state, each
 * row's cell into cell and the cells' runs into cell_start (cell c's
 * run starts at cell_start[c + 1]: the pack advances it to the next
 * run's start).  scratch holds 4 doubles a row for the rows the grid
 * can place, when some cannot.  Returns -1 if the grid needs more cells
 * than the caller provided for.
 */
static int build_grid(i64 n, const planes *b, grid_stats s, i64 *ip, double *fp,
                      double *scratch, int32_t *cell, int32_t *cell_start)
{
    double limit[2] = {INFINITY, INFINITY};
    i64 rows = n;
    stats_mean(&s, b, n);
    int all_regular = 1;
    for (int a = 0; a < 2; a++)
        all_regular &= isfinite(s.lo_min[a] + s.lo_max[a] + s.w_mean[a])
                       && s.w_max[a] <= fp[F_OVERSIZE] * py_max(s.w_mean[a], 0.0);
    if (!all_regular) {
        /* The statistics again over the rows the grid can place, copied
         * into scratch planes: the finite rows, then of those the ones
         * no wider than a few of their mean widths. */
        planes g = {{scratch, scratch + n}, {scratch + 2 * n, scratch + 3 * n}, b->slack};
        rows = compact(&g, b, n, NULL);
        if (rows) {
            for (int a = 0; a < 2; a++)
                limit[a] = fp[F_OVERSIZE] * py_max((0.0 + width_sum(&g, a, 0, rows)) / (double)rows, 0.0);
            rows = compact(&g, &g, rows, limit);
        }
        if (!rows) return 0;
        stats_init(&s);
        for (i64 k = 0; k < rows; k++)
            for (int a = 0; a < 2; a++) stats_add(&s, a, corner(&g, a, k), width(&g, a, k));
        stats_mean(&s, &g, rows);
    }
    double extent[2], span[2];
    for (int a = 0; a < 2; a++) {
        fp[G_ORIGIN + a] = s.lo_min[a];
        extent[a] = s.lo_max[a] - s.lo_min[a];
        /* W: no binned box is wider; the pad absorbs the rounding of
         * hi - lo and of a visiting row's lb - W. */
        fp[G_REACH + a] = py_max(s.w_max[a], 0.0) + fp[F_PAD + a];
        span[a] = py_max(s.w_mean[a], 0.0) + fp[G_REACH + a];
    }
    /* Finite corners at both ends of the doubles: no cell size. */
    if (!isfinite(extent[0] + extent[1])) return 0;
    i64 shape[2];
    grid_shape(extent, span, rows, fp, shape);
    i64 nx = shape[0], ny = shape[1], cells = nx * ny;
    if (cells == 1) return 0;
    if (cells > ip[I_MAX_CELLS]) return -1;
    for (int a = 0; a < 2; a++)
        fp[G_INV + a] = shape[a] > 1 ? (double)shape[a] / extent[a] : 0.0;
    /* A counting sort by cell: the counts go to cell_start[c + 2], so
     * that their running sum leaves cell c's start in cell_start[c + 1]. */
    for (i64 c = 0; c <= cells + 2; c++) cell_start[c] = 0;
    for (i64 r = 0; r < n; r++) {
        i64 c = cells;
        if (all_regular || (finite_row(b, r) && width(b, 0, r) <= limit[0]
                            && width(b, 1, r) <= limit[1]))
            c = cell_of(corner(b, 0, r), fp[G_ORIGIN], fp[G_INV], nx, 0, nx - 1) * ny
                + cell_of(corner(b, 1, r), fp[G_ORIGIN + 1], fp[G_INV + 1], ny, 0, ny - 1);
        cell[r] = (int32_t)c;
        cell_start[c + 2]++;
    }
    for (i64 c = 2; c <= cells + 2; c++) cell_start[c] += cell_start[c - 1];
    ip[S_NX] = nx;
    ip[S_NY] = ny;
    return 0;
}

/* Exact-tests the queued pairs into out, which has room for all of
 * them; returns the new count written. */
static i64 run_queue(i64 *ip, const double *const *cols_a, const double *const *cols_b,
                     const double *ends_a, const double *ends_b, const double *fp, i64 *out_a,
                     i64 *out_b, double *out_lo, double *out_hi, i64 written)
{
    const int q_is_a = !(ip[I_NA] > ip[I_NB]);
    const i64 *queue_p = ip + I_QUEUE, *queue_q = queue_p + QUEUE;
    for (i64 k = 0; k < ip[S_QUEUED]; k++) {
        i64 ia = q_is_a ? queue_q[k] : queue_p[k], ib = q_is_a ? queue_p[k] : queue_q[k];
        double until = fp[F_T1];
        if (ends_a || ends_b)
            until = np_min(ends_a ? ends_a[ia] : until, ends_b ? ends_b[ib] : until);
        double lo, hi;
        if (pair_window(cols_a, ia, cols_b, ib, fp[F_T0], until, fp[F_EPS], &lo, &hi)) {
            out_a[written] = ia;
            out_b[written] = ib;
            out_lo[written] = lo;
            out_hi[written] = hi;
            written++;
        }
    }
    ip[S_QUEUED] = 0;
    return written;
}

/*
 * The join.  stack_a / stack_b: each side's 13 columns, stacked (see
 * the enum at the top) at a stride of ip[I_STRIDE_A] / ip[I_STRIDE_B]
 * doubles; ends_a / ends_b: a window end per row, or NULL for the
 * scalar t1.  The smaller side ("q", side b on a tie) visits the larger
 * ("p"), which is binned.
 *
 * ip and fp hold the parameters and state (the enums at the top), then
 * the workspace.  In fp, for every p row: its swept bounds, four planes
 * of doubles, then (from the next LINE boundary) its `binned` row.  In
 * ip, with a grid, all int32: the cell table, max_cells + 3 slots, then
 * a cell id per p row, then a row index per binned slot.  out holds cap
 * >= ROOM slots each of idx_a, idx_b (int64), lo and hi (double), in
 * that order; the return value is how many hits were written.  A call
 * stops early when the output lacks room for another block; the state
 * then keeps where the enumeration stopped and what it queued, and a
 * call with the same arguments, ip and fp and a fresh output carries on
 * from there.  ip[S_PHASE] is DONE once every pair is tested.  Returns
 * -1 if the grid outgrew max_cells.
 */
i64 sweep_join(const double *stack_a, const double *stack_b, const double *ends_a,
               const double *ends_b, i64 *ip, double *fp, void *out, i64 cap)
{
    const double *cols_a[COLUMNS], *cols_b[COLUMNS];
    for (int c = 0; c < COLUMNS; c++) {
        cols_a[c] = stack_a + c * ip[I_STRIDE_A];
        cols_b[c] = stack_b + c * ip[I_STRIDE_B];
    }
    const double t0 = fp[F_T0], t1 = fp[F_T1];
    const int dim = (int)ip[I_DIM], orth = 1 - dim;
    const int q_is_a = !(ip[I_NA] > ip[I_NB]);
    const double *const *Q = q_is_a ? cols_a : cols_b;
    const double *const *P = q_is_a ? cols_b : cols_a;
    const double *ends_q = q_is_a ? ends_a : ends_b, *ends_p = q_is_a ? ends_b : ends_a;
    const int per_row = ends_a || ends_b;
    const i64 nq = q_is_a ? ip[I_NA] : ip[I_NB], np = q_is_a ? ip[I_NB] : ip[I_NA];
    const int gridded = (int)ip[I_GRIDDED];
    i64 *out_a = out, *out_b = out_a + cap;
    double *out_lo = (double *)(out_b + cap), *out_hi = out_lo + cap;
    /* The binned side's rows in binned order, after its bound planes
     * (on a cache-line boundary, which the record size divides), and
     * with a grid, the row each slot holds (order). */
    const uintptr_t after = (uintptr_t)(fp + F_WORK + 4 * np);
    binned *packed = (binned *)((after + LINE - 1) & ~(uintptr_t)(LINE - 1));
    int32_t *cell_start = gridded ? (int32_t *)(ip + I_WORK) : NULL;
    int32_t *cell = gridded ? cell_start + ip[I_MAX_CELLS] + 3 : NULL;
    int32_t *order = gridded ? cell + np : NULL;
    i64 *queue_p = ip + I_QUEUE, *queue_q = queue_p + QUEUE;

    if (ip[S_PHASE] == FRESH) {
        double *bounds = fp + F_WORK;
        const planes b = {{bounds, bounds + 2 * np}, {bounds + np, bounds + 3 * np}, fp + F_SLACK};
        grid_stats s;
        bound_rows(P, ends_p, t0, t1, np, &b, &s);
        ip[S_NX] = ip[S_NY] = 0;
        if (gridded && build_grid(np, &b, s, ip, fp, (double *)packed, cell, cell_start) < 0)
            return -1;
        /* The pack, in one pass: each row to the next slot of its cell's
         * run (with no grid, to its own). */
        const double *lb = b.lb[dim], *ub = b.ub[dim], *olb = b.lb[orth], *oub = b.ub[orth];
        const double slack_o = fp[F_SLACK + orth];
        const int binning = ip[S_NX] != 0;
        for (i64 r = 0; r < np; r++) {
            /* The slot a row a little ahead goes to, fetched for writing
             * in time: the rows of a cell are few, the slots scattered. */
            if (binning && r + PACK_AHEAD < np)
                __builtin_prefetch(packed + cell_start[cell[r + PACK_AHEAD] + 1], 1);
            i64 k = r;
            if (binning) {
                k = cell_start[cell[r] + 1]++;
                order[k] = (int32_t)r;
            }
            packed[k] = (binned){lb[r], ub[r], olb[r] - slack_o, oub[r] + slack_o};
        }
        ip[S_Q] = ip[S_SEG] = ip[S_ENUMERATED] = ip[S_TESTED] = ip[S_QUEUED] = 0;
        ip[S_POS] = -1;
        ip[S_PHASE] = BUILT;
    }
    const i64 nx = ip[S_NX], ny = ip[S_NY];
    if (!nx) order = NULL;
    /* A resumed call first tests what the last one queued: cap holds it. */
    i64 written = run_queue(ip, cols_a, cols_b, ends_a, ends_b, fp, out_a, out_b, out_lo, out_hi, 0);
    const i64 q_from = ip[S_Q];
    i64 enumerated = ip[S_ENUMERATED], tested = ip[S_TESTED];
    for (i64 q = q_from; q < nq; q++) {
        double end_q = ends_q ? ends_q[q] : t1, lb[2], ub[2];
        for (int a = 0; a < 2; a++) sweep_bounds(Q, q, a, t0, end_q, &lb[a], &ub[a]);
        /* What the row visits: cell columns x0 .. x0 + columns - 1, each
         * the run of cells y0 .. y1, then the run from `extra` to the end
         * of the binned order (the overflow cell; everything for a
         * non-finite row or a one-cell grid). */
        i64 x0 = 0, columns = 0, y0 = 0, y1 = 0, extra = 0;
        if (nx) {
            int finite = isfinite(lb[0] + lb[1] + ub[0] + ub[1]);
            double l0 = finite ? lb[0] : 0.0, l1 = finite ? lb[1] : 0.0;
            double u0 = finite ? ub[0] : 0.0, u1 = finite ? ub[1] : 0.0;
            x0 = cell_of(l0 - fp[G_REACH], fp[G_ORIGIN], fp[G_INV], nx, 0, nx);
            i64 x1 = cell_of(u0, fp[G_ORIGIN], fp[G_INV], nx, -1, nx - 1);
            y0 = cell_of(l1 - fp[G_REACH + 1], fp[G_ORIGIN + 1], fp[G_INV + 1], ny, 0, ny);
            y1 = cell_of(u1, fp[G_ORIGIN + 1], fp[G_INV + 1], ny, -1, ny - 1);
            columns = (y1 < y0 || x1 < x0 || !finite) ? 0 : x1 - x0 + 1;
            extra = finite ? cell_start[nx * ny] : 0;
        }
        const double q_lb = lb[dim], q_ub = ub[dim], q_olb = lb[orth], q_oub = ub[orth];
        const int resumed = q == q_from;
        for (i64 seg = resumed ? ip[S_SEG] : 0; seg <= columns; seg++) {
            i64 start = extra, stop = np;
            if (seg < columns) {
                i64 base = (x0 + seg) * ny;
                start = cell_start[base + y0];
                stop = cell_start[base + y1 + 1];
            }
            i64 k = start;
            if (resumed && seg == ip[S_SEG] && ip[S_POS] >= 0)
                k = ip[S_POS];
            else
                enumerated += stop - start;
            for (; k < stop; k += BLOCK) {
                if (cap - written < ip[S_QUEUED] + BLOCK) {
                    /* Out of room: stop before this block. */
                    ip[S_Q] = q;
                    ip[S_SEG] = seg;
                    ip[S_POS] = k;
                    ip[S_ENUMERATED] = enumerated;
                    ip[S_TESTED] = tested;
                    return written;
                }
                i64 passed[BLOCK], n_passed = 0, end = stop - k < BLOCK ? stop : k + BLOCK;
                for (i64 j = k; j < end; j++) {
                    const binned *pk = packed + j;
                    /* The reject is negated, so an unordered comparison
                     * (NaN) passes on to the exact test, not dropped. */
                    passed[n_passed] = j;
                    n_passed += !(pk->olo > q_oub) & !(pk->ohi < q_olb)
                                & sweep_partners(pk->lb, pk->ub, q_lb, q_ub, q_is_a);
                }
                for (i64 i = 0; i < n_passed; i++) {
                    i64 p = order ? order[passed[i]] : passed[i];
                    double end_p = ends_p ? ends_p[p] : t1;
                    if (per_row && end_p != end_q) {
                        /* Own-window ranges contain the pair's; where the
                         * two ends differ the rule applies on the pair's
                         * window too. */
                        double until = np_min(end_p, end_q), lbp, ubp, lbq, ubq;
                        sweep_bounds(P, p, dim, t0, until, &lbp, &ubp);
                        sweep_bounds(Q, q, dim, t0, until, &lbq, &ubq);
                        if (!sweep_partners(lbp, ubp, lbq, ubq, q_is_a)) continue;
                    }
                    tested++;
                    for (int c = VLO; c < TREF; c++) __builtin_prefetch(P[c] + p);
                    queue_p[ip[S_QUEUED]] = p;
                    queue_q[ip[S_QUEUED]++] = q;
                    if (ip[S_QUEUED] == QUEUE)
                        written = run_queue(ip, cols_a, cols_b, ends_a, ends_b, fp, out_a, out_b,
                                            out_lo, out_hi, written);
                }
            }
        }
    }
    ip[S_Q] = nq;
    ip[S_ENUMERATED] = enumerated;
    ip[S_TESTED] = tested;
    if (cap - written < ip[S_QUEUED]) return written;
    written = run_queue(ip, cols_a, cols_b, ends_a, ends_b, fp, out_a, out_b, out_lo, out_hi, written);
    ip[S_PHASE] = DONE;
    return written;
}

/* The slots and sizes the caller needs: the state it reads (phase,
 * enumerated, tested and the DONE phase), the int64 slots before the
 * workspace, the doubles outside the rows' (the slots before the
 * workspace and the pad that aligns the packed rows), the fewest output
 * slots a call works with, and the doubles a binned row takes: four
 * bounds and its packed row. */
void sweep_layout(i64 *out)
{
    const i64 layout[] = {S_PHASE, S_ENUMERATED, S_TESTED, DONE, I_WORK,
                          F_WORK + LINE / sizeof(double) - 1, ROOM,
                          4 + sizeof(binned) / sizeof(double)};
    for (size_t k = 0; k < sizeof(layout) / sizeof(layout[0]); k++) out[k] = layout[k];
}
