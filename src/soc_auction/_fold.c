/* The selling rule of soc_auction.engine._fold over a whole run.
 *
 * heap[0..m) is a binary max-heap of 0-based arrival indices into p, ordered
 * by price and, among equal prices, by earlier arrival: the (-price, index)
 * order of the Python fold. `armed` says whether a lower arrival may execute
 * the maximum: the classic rule never clears it; the two-consecutive rule
 * sets it after each arrival to whether that arrival is strictly below the
 * pool maximum. Every arrival joins the pool and every sale leaves it, so the
 * pool ends as heap[0..n - sales). Returns the number of sales.
 */
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
