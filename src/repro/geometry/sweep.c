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

/* One side's columns: the per-axis planes of the MBR and VBR, the MBR
 * pre-shifted to reference time 0, and t_ref. */
enum { MLO = 0, MHI = 2, VLO = 4, VHI = 6, SLO = 8, SHI = 10, TREF = 12 };

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

/* The int64 buffer: parameters, then state, then the exact-test queue
 * (QUEUE p rows, then their QUEUE q rows), then the workspace. */
enum { I_NA, I_NB, I_DIM, I_GRIDDED, I_MAX_CELLS,
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
 * axis, the slack-padded lo and hi across it, and the row's index. */
typedef struct { double lb, ub, olo, ohi; i64 row; } binned;

/* How to read a row's padded box on either axis: across the sweep axis
 * it is stored, along it the slack is applied to lb and ub again (the
 * same two operations, so the same doubles). */
typedef struct { int dim; double slack; } fields;

static inline double corner(const binned *row, const fields *f, int axis)
{
    return axis == f->dim ? row->lb - f->slack : row->olo;
}

static inline double width(const binned *row, const fields *f, int axis)
{
    if (axis == f->dim) return (row->ub + f->slack) - (row->lb - f->slack);
    return row->ohi - row->olo;
}

/*
 * np.add.reduce of both axes' padded widths: 0.0 plus NumPy's pairwise
 * sum (8 accumulators, blocks of 128), one traversal for the two axes.
 * Record k is rec[k], or rec[idx[k]] when idx is not NULL; the two are
 * written out separately so the common dense case has no per-element
 * test.
 */
#define WIDTH_SUMS(NAME, ROW)                                                          \
    static void NAME(const binned *rec, const fields *f, const i64 *idx, i64 n,        \
                     double *sum)                                                      \
    {                                                                                  \
        if (n < 8) {                                                                   \
            double res[2] = {0.0, 0.0};                                                \
            for (i64 k = 0; k < n; k++)                                                \
                for (int a = 0; a < 2; a++) res[a] += width(rec + ROW(k), f, a);      \
            sum[0] = res[0], sum[1] = res[1];                                          \
            return;                                                                    \
        }                                                                              \
        if (n <= 128) {                                                                \
            for (int a = 0; a < 2; a++) {                                              \
                double r[8];                                                           \
                i64 k;                                                                 \
                for (int j = 0; j < 8; j++) r[j] = width(rec + ROW(j), f, a);          \
                for (k = 8; k < n - (n % 8); k += 8)                                   \
                    for (int j = 0; j < 8; j++) r[j] += width(rec + ROW(k + j), f, a); \
                double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7])); \
                for (; k < n; k++) res += width(rec + ROW(k), f, a);                   \
                sum[a] = res;                                                          \
            }                                                                          \
            return;                                                                    \
        }                                                                              \
        i64 n2 = n / 2;                                                                \
        n2 -= n2 % 8;                                                                  \
        double left[2], right[2];                                                      \
        NAME(rec, f, idx, n2, left);                                                   \
        NAME(idx ? rec : rec + n2, f, idx ? idx + n2 : NULL, n - n2, right);           \
        sum[0] = left[0] + right[0], sum[1] = left[1] + right[1];                      \
    }
#define DENSE(k) (k)
#define GATHERED(k) (idx[k])
WIDTH_SUMS(width_sums_dense, DENSE)
WIDTH_SUMS(width_sums_gathered, GATHERED)

/* Per axis: the extremes of the padded lower corners and widths (NaN
 * wins, as in np.min/np.max; the sign of a zero extreme changes no
 * decision) and the mean width, as np.mean computes it. */
typedef struct { double lo_min[2], lo_max[2], w_max[2], w_mean[2]; } grid_stats;

static void stats_init(grid_stats *s)
{
    for (int a = 0; a < 2; a++) {
        s->lo_min[a] = INFINITY;
        s->lo_max[a] = s->w_max[a] = -INFINITY;
    }
}

static inline void stats_add(grid_stats *s, const binned *row, const fields *f, int *nan)
{
    for (int a = 0; a < 2; a++) {
        double lo = corner(row, f, a), w = width(row, f, a);
        nan[a] |= lo != lo;
        nan[2 + a] |= w != w;
        s->lo_min[a] = lo < s->lo_min[a] ? lo : s->lo_min[a];
        s->lo_max[a] = lo > s->lo_max[a] ? lo : s->lo_max[a];
        s->w_max[a] = w > s->w_max[a] ? w : s->w_max[a];
    }
}

static void stats_finish(grid_stats *s, const int *nan, const binned *rec, const fields *f,
                         const i64 *idx, i64 n)
{
    double sum[2];
    if (idx)
        width_sums_gathered(rec, f, idx, n, sum);
    else
        width_sums_dense(rec, f, NULL, n, sum);
    for (int a = 0; a < 2; a++) {
        if (nan[a]) s->lo_min[a] = s->lo_max[a] = NAN;
        if (nan[2 + a]) s->w_max[a] = NAN;
        s->w_mean[a] = (0.0 + sum[a]) / (double)n;
    }
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

/*
 * Bin the p side's n records, whose all-row statistics s holds: a
 * uniform grid over the slack-padded swept boxes, rows sorted (stably)
 * by the cell of their lower corner, non-finite or oversize rows in an
 * overflow cell after the last.  Writes nx/ny (left 0 for the one-cell
 * case: nothing binned, nothing sorted), origin, inv and reach into the
 * state, and order, cell_start and the binned rows in binned order
 * into the workspace.  Returns -1 if the grid needs more cells than the
 * caller provided for.
 */
static int build_grid(i64 n, binned *rec, const fields *f, grid_stats s, i64 *ip,
                      double *fp, binned *packed)
{
    i64 max_cells = ip[I_MAX_CELLS];
    i64 *regular = ip + I_WORK, *order = regular + n, *cell_start = order + n;
    i64 *next = cell_start + max_cells + 2;
    const i64 *idx = NULL; /* every row, until one turns out irregular */
    i64 rows = n;
    int all_regular = 1;
    for (int a = 0; a < 2; a++)
        all_regular &= isfinite(s.lo_min[a] + s.lo_max[a] + s.w_mean[a])
                       && s.w_max[a] <= fp[F_OVERSIZE] * py_max(s.w_mean[a], 0.0);
    if (!all_regular) {
        rows = 0;
        for (i64 r = 0; r < n; r++) {
            const binned *row = rec + r;
            if (isfinite(corner(row, f, 0) + corner(row, f, 1) + width(row, f, 0) + width(row, f, 1)))
                regular[rows++] = r;
        }
        if (rows) {
            double sum[2], limit[2];
            width_sums_gathered(rec, f, regular, rows, sum);
            for (int a = 0; a < 2; a++)
                limit[a] = fp[F_OVERSIZE] * py_max((0.0 + sum[a]) / (double)rows, 0.0);
            i64 kept = 0;
            for (i64 k = 0; k < rows; k++) {
                const binned *row = rec + regular[k];
                if (width(row, f, 0) <= limit[0] && width(row, f, 1) <= limit[1])
                    regular[kept++] = regular[k];
            }
            rows = kept;
        }
        if (!rows) return 0;
        idx = regular;
        int nan[4] = {0, 0, 0, 0};
        stats_init(&s);
        for (i64 k = 0; k < rows; k++) stats_add(&s, rec + idx[k], f, nan);
        stats_finish(&s, nan, rec, f, idx, rows);
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
    if (cells > max_cells) return -1;
    for (int a = 0; a < 2; a++)
        fp[G_INV + a] = shape[a] > 1 ? (double)shape[a] / extent[a] : 0.0;
    /* Stable counting sort by cell; cell_start[c] opens cell c's run.
     * Until the rows are packed, a record's `row` holds its cell. */
    for (i64 c = 0; c <= cells + 1; c++) cell_start[c] = 0;
    if (idx)
        for (i64 r = 0; r < n; r++) rec[r].row = cells;
    for (i64 k = 0; k < rows; k++) {
        binned *row = rec + (idx ? idx[k] : k);
        row->row = cell_of(corner(row, f, 0), fp[G_ORIGIN], fp[G_INV], nx, 0, nx - 1) * ny
                   + cell_of(corner(row, f, 1), fp[G_ORIGIN + 1], fp[G_INV + 1], ny, 0, ny - 1);
        if (!idx) cell_start[row->row + 1]++;
    }
    if (idx)
        for (i64 r = 0; r < n; r++) cell_start[rec[r].row + 1]++;
    for (i64 c = 0; c <= cells; c++) {
        cell_start[c + 1] += cell_start[c];
        next[c] = cell_start[c];
    }
    /* Sorted indices first, then the rows gathered in that order: the
     * packed rows are written in sequence, not scattered. */
    for (i64 r = 0; r < n; r++) order[next[rec[r].row]++] = r;
    for (i64 k = 0; k < n; k++) {
        packed[k] = rec[order[k]];
        packed[k].row = order[k];
    }
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
 * The join.  cols: 13 column pointers for side a (see the enum at the
 * top), then 13 for side b; ends_a / ends_b: a window end per row, or
 * NULL for the scalar t1.  The smaller side ("q", side b on a tie)
 * visits the larger ("p"), which is binned.
 *
 * ip and fp hold the parameters and state (the enums at the top), then
 * the workspace: 2 int64 per p row plus 2 * max_cells + 3 in ip, two
 * `binned` rows per p row in fp (none and one without a grid).  out
 * holds cap >= ROOM slots each of idx_a, idx_b (int64), lo and hi
 * (double), in that order; the return value is how many hits were
 * written.  A call stops early when the output lacks room for another
 * block; the state then keeps where the enumeration stopped and what it
 * queued, and a call with the same arguments, ip and fp and a fresh
 * output carries on from there.  ip[S_PHASE] is DONE once every pair is
 * tested.  Returns -1 if the grid outgrew max_cells.
 */
i64 sweep_join(const double *const *cols, const double *ends_a, const double *ends_b, i64 *ip,
               double *fp, void *out, i64 cap)
{
    const double *const *cols_a = cols, *const *cols_b = cols + 13;
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
    /* The binned side's rows in binned order. */
    binned *packed = (binned *)(fp + F_WORK);
    const i64 *cell_start = gridded ? ip + I_WORK + 2 * np : NULL;
    i64 *queue_p = ip + I_QUEUE, *queue_q = queue_p + QUEUE;

    if (ip[S_PHASE] == FRESH) {
        /* Without a grid the rows are packed in row order directly;
         * with one, in row order next to it, then binned. */
        binned *rec = gridded ? packed + np : packed;
        const fields f = {dim, fp[F_SLACK + dim]};
        grid_stats s;
        int nan[4] = {0, 0, 0, 0};
        stats_init(&s);
        /* The hottest loop: the columns by name, sweep axis (d) and across
         * (o), so nothing is indexed by `dim` per row. */
        const double *tref = P[TREF], *dmlo = P[MLO + dim], *dmhi = P[MHI + dim];
        const double *dvlo = P[VLO + dim], *dvhi = P[VHI + dim], *omlo = P[MLO + orth];
        const double *omhi = P[MHI + orth], *ovlo = P[VLO + orth], *ovhi = P[VHI + orth];
        const double slack_o = fp[F_SLACK + orth];
        for (i64 r = 0; r < np; r++) {
            double end = ends_p ? ends_p[r] : t1, lb, ub, olb, oub;
            swept(tref[r], dmlo[r], dmhi[r], dvlo[r], dvhi[r], t0, end, &lb, &ub);
            swept(tref[r], omlo[r], omhi[r], ovlo[r], ovhi[r], t0, end, &olb, &oub);
            rec[r] = (binned){lb, ub, olb - slack_o, oub + slack_o, r};
            if (gridded) stats_add(&s, rec + r, &f, nan);
        }
        ip[S_NX] = ip[S_NY] = 0;
        if (gridded) {
            stats_finish(&s, nan, rec, &f, NULL, np);
            if (build_grid(np, rec, &f, s, ip, fp, packed) < 0) return -1;
            if (!ip[S_NX])
                for (i64 r = 0; r < np; r++) packed[r] = rec[r];
        }
        ip[S_Q] = ip[S_SEG] = ip[S_ENUMERATED] = ip[S_TESTED] = ip[S_QUEUED] = 0;
        ip[S_POS] = -1;
        ip[S_PHASE] = BUILT;
    }
    const i64 nx = ip[S_NX], ny = ip[S_NY];
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
                    i64 p = packed[passed[i]].row;
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
 * enumerated, tested and the DONE phase), where the two workspaces
 * start, the fewest output slots a call works with, and the doubles a
 * binned row takes. */
void sweep_layout(i64 *out)
{
    const i64 layout[] = {S_PHASE, S_ENUMERATED, S_TESTED, DONE, I_WORK, F_WORK, ROOM,
                          sizeof(binned) / sizeof(double)};
    for (size_t k = 0; k < sizeof(layout) / sizeof(layout[0]); k++) out[k] = layout[k];
}
