/* The compiled kernels of soc_auction.engine.
 *
 * fold: the selling rule of engine._fold over a whole run. heap[0..m) is a
 * binary max-heap of 0-based arrival indices into p, ordered by price and,
 * among equal prices, by earlier arrival: the (-price, index) order of the
 * Python fold. `armed` says whether a lower arrival may execute the maximum:
 * the classic rule never clears it; the two-consecutive rule sets it after
 * each arrival to whether that arrival is strictly below the pool maximum.
 * Every arrival joins the pool and every sale leaves it, so the pool ends as
 * heap[0..n - sales). Returns the number of sales.
 *
 * exact_sum: CPython's math.fsum over a double array, bit for bit. Build
 * without -ffast-math: its error-free transforms need exact IEEE rounding.
 */
#include <math.h>
#include <stdint.h>

static int above(const double *p, int64_t a, int64_t b)
{
    return p[a] > p[b] || (p[a] == p[b] && a < b);
}

int64_t fold(const double *p, int64_t n, int two_consecutive,
             double *sale_price, int64_t *accepted, int64_t *trigger,
             int64_t *heap)
{
    int64_t m = 0, s = 0, i, k, c;
    int armed = 1;
    for (i = 0; i < n; i++) {
        if (armed && m && p[i] < p[heap[0]]) {
            sale_price[s] = p[heap[0]];
            accepted[s] = heap[0] + 1;
            trigger[s++] = i + 1;
            /* the arrival takes the sold maximum's place and sinks */
            for (k = 0; (c = 2 * k + 1) < m; k = c) {
                if (c + 1 < m && above(p, heap[c + 1], heap[c]))
                    c++;
                if (!above(p, heap[c], i))
                    break;
                heap[k] = heap[c];
            }
        } else {
            /* the arrival joins at the bottom and rises */
            for (k = m++; k && above(p, i, heap[(k - 1) / 2]); k = (k - 1) / 2)
                heap[k] = heap[(k - 1) / 2];
        }
        heap[k] = i;
        if (two_consecutive)
            armed = p[i] < p[heap[0]];
    }
    return s;
}

/* Shewchuk's non-overlapping partials, then the half-even correction on the
 * last one: the same operations in the same order as CPython's math.fsum,
 * so the result equals it bit for bit. The partials are non-overlapping, so
 * each owns at least one of the 2098 binary exponent positions of a double
 * (2^-1074 .. 2^1023), and 2099 slots always hold them. For finite input a
 * non-finite result means an intermediate overflow (fsum's OverflowError):
 * it is returned at once. The one product, lo * 2.0, is exact, so a fused
 * multiply-add cannot change a rounding.
 */
double exact_sum(const double *v, int64_t n)
{
    double p[2099], x, y, t, hi, yr, lo = 0.0;
    int64_t i, j, k, m = 0;
    for (k = 0; k < n; k++) {
        x = v[k];
        for (i = j = 0; j < m; j++) {
            y = p[j];
            if (fabs(x) < fabs(y)) {
                t = x; x = y; y = t;
            }
            hi = x + y;
            lo = y - (hi - x);
            if (lo != 0.0)
                p[i++] = lo;
            x = hi;
        }
        m = i;
        if (x != 0.0) {
            if (!isfinite(x))
                return x;
            p[m++] = x;
        }
    }
    hi = 0.0;
    if (m > 0) {
        hi = p[--m];
        /* sum the partials from the top until the sum becomes inexact */
        while (m > 0) {
            x = hi;
            y = p[--m];
            hi = x + y;
            yr = hi - x;
            lo = y - yr;
            if (lo != 0.0)
                break;
        }
        /* round half-even across partials: lo and the next partial below
         * share a sign, so the true sum is past the halfway point */
        if (m > 0 && ((lo < 0.0 && p[m - 1] < 0.0) ||
                      (lo > 0.0 && p[m - 1] > 0.0))) {
            y = lo * 2.0;
            x = hi + y;
            yr = x - hi;
            if (y == yr)
                hi = x;
        }
    }
    return hi;
}
