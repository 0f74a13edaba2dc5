/* The compiled kernels of soc_auction, loaded by soc_auction._kernel.
 *
 * fold: the selling rule of engine._fold over a whole run. The pool is the
 * 0-based arrival indices into p not yet sold, ordered by price and, among
 * equal prices, by earlier arrival: the (-price, index) order of the Python
 * fold. It is split at a threshold entry t. The entries at or above t are
 * held in two parts: the top stack st[0..ns), at most TOP entries in
 * ascending order, and a binary max-heap h[0..m) of the rest. Every stack
 * entry ranks above the heap's root, so the pool maximum is st[ns - 1], or
 * h[0] when the stack is empty. The unsorted bucket pool[0..b) holds the
 * entries below t. Each arrival takes three steps:
 * - sell: when the rule fires, the pool maximum leaves: the stack's top, or
 *   else the heap's root, whose place the heap's last entry takes and sinks.
 * - place: an arrival at or below t's price goes to the bucket (it arrives
 *   after t, so a tie puts it below); bids below the critical price freeze
 *   there and are never sifted. An arrival above it joins the stack, by an
 *   insertion from the top (a new maximum is a push), when it ranks above
 *   the heap's root; else it joins the heap. A full stack spills its bottom
 *   entry into the heap when the arrival ranks above that entry, and passes
 *   the arrival to the heap when it does not.
 * - rebalance: a push that brings the heap to CAP entries spills the whole
 *   heap into the bucket and takes back its top quarter, so the threshold
 *   rises; when a sale empties the stack and the heap and the arrival goes
 *   to the bucket, the heap takes the larger of the bucket's top eighth
 *   and CAP / 4 entries, so it falls. Either way select_top moves the top
 *   k of the bucket's last len entries into the heap, and t becomes the
 *   last of them. The refill grows with the bucket, so no run folds in
 *   quadratic time. After a refill the heap may outgrow CAP; it raises
 *   again only when a push brings it to CAP, and h (n entries, from the
 *   caller) holds it however large it grows.
 * `armed` says whether a lower arrival may execute the maximum: the classic
 * rule never clears it; the two-consecutive rule sets it after each arrival
 * to whether that arrival is strictly below the pool maximum. Every arrival
 * joins the pool and every sale leaves it, so the pool ends, in no order,
 * as pool[0..n - sales): the bucket, the heap, then the stack. Returns the
 * number of sales.
 *
 * exact_sum: CPython's math.fsum over a double array, bit for bit.
 *
 * ndtri, ndtr: the standard normal quantile and cdf over a double array,
 * line-for-line ports of S. L. Moshier's Cephes ndtri.c and ndtr.c (with
 * its erf and erfc), the code scipy.special runs, so each value equals
 * scipy's bit for bit.
 *
 * csv_rows: rows [lo, hi) of equal-length float64 and int64 columns as CSV
 * text, in the cell rule of cli._cells, by integer arithmetic alone:
 * integers two digits at a time, and each real with 2^-53 <= |x| < 2^128
 * (about 1.1e-16 to 3.4e38) by put_exact, rounded to 17 significant digits
 * exactly in unsigned 128-bit integers. It declines a block that holds any
 * other unmasked real (or any real, without unsigned __int128), which cli
 * then writes in Python with the same bytes.
 *
 * Build without -ffast-math and with -ffp-contract=off: the error-free
 * transforms need exact IEEE rounding, and the polynomial loops must not
 * fuse a multiply and an add that Cephes rounds apart.
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

/* Is entry a ahead of entry b in the pool: a higher price, or an equal
 * price that arrived earlier? */
static int above(const double *p, int64_t a, int64_t b)
{
    return p[a] > p[b] || (p[a] == p[b] && a < b);
}

/* Put entry x at slot k of the heap h[0..m) and let it sink. */
static inline void sink(const double *p, int64_t *h, int64_t m, int64_t k, int64_t x)
{
    int64_t c;
    for (; (c = 2 * k + 1) < m; k = c) {
        if (c + 1 < m && above(p, h[c + 1], h[c]))
            c++;
        if (!above(p, h[c], x))
            break;
        h[k] = h[c];
    }
    h[k] = x;
}

static void heapify(const double *p, int64_t *h, int64_t m)
{
    int64_t k;
    for (k = m / 2; k-- > 0;)
        sink(p, h, m, k, h[k]);
}

/* Reorder a[0..len) so that a[0..k) are its k entries furthest ahead
 * (0 < k <= len) and a[k - 1] the last of them: Hoare's selection, with the
 * median of the first, middle and last entries as each pivot. It stays out
 * of line: inlined into fold, its one caller, it made the runs that refill
 * most (a rise then a fall) about 8% slower. */
__attribute__((noinline))
static void select_top(const double *p, int64_t *a, int64_t len, int64_t k)
{
    int64_t lo = 0, hi = len - 1, i, j, mid, x, t;
#define SWAP(u, v) (t = (u), (u) = (v), (v) = t)
    while (lo < hi) {
        mid = lo + (hi - lo) / 2;
        if (above(p, a[mid], a[lo]))
            SWAP(a[mid], a[lo]);
        if (above(p, a[hi], a[lo]))
            SWAP(a[hi], a[lo]);
        if (above(p, a[hi], a[mid]))
            SWAP(a[hi], a[mid]);
        x = a[mid];
        for (i = lo, j = hi; i <= j; i++, j--) {
            while (above(p, a[i], x))
                i++;
            while (above(p, x, a[j]))
                j--;
            if (i > j)
                break;
            SWAP(a[i], a[j]);
        }
        /* a[lo..i) are not behind x, a(j..hi] not ahead of it */
        if (k - 1 <= j)
            hi = j;
        else if (k - 1 >= i)
            lo = i;
        else
            break;
    }
#undef SWAP
}

#define CAP 4096 /* the heap size at which the threshold rises */
#define TOP 64    /* the top stack's capacity */

int64_t fold(const double *p, int64_t n, int two_consecutive,
             double *sale_price, int64_t *accepted, int64_t *trigger,
             int64_t *pool, int64_t *h)
{
    /* the top stack st[0..ns) slides up buf: a spill advances st, and a
     * push that meets buf's end moves the stack back to its start, at most
     * once per TOP pushes */
    int64_t buf[2 * TOP], *st = buf, *a;
    int64_t m = 0, b = 0, ns = 0, s = 0, len, i, k, j, x;
    double tp = 0.0; /* the threshold entry's price; every price is > 0 */
    int armed = 1;
    for (i = 0; i < n; i++) {
        x = ns ? st[ns - 1] : m ? h[0] : -1; /* the pool maximum, if any */
        if (armed && x >= 0 && p[i] < p[x]) { /* sell */
            if (ns)
                ns--;
            else if (--m)
                sink(p, h, m, 0, h[m]);
            sale_price[s] = p[x];
            accepted[s] = x + 1;
            trigger[s++] = i + 1;
        }
        x = i; /* place; x is the entry that joins the heap, if any */
        if (p[i] <= tp) {
            pool[b++] = i;
            x = -1;
        } else if ((!m || p[i] > p[h[0]]) &&
                   (ns < TOP || p[i] > p[st[0]])) {
            x = -1; /* to the stack; a full stack's bottom goes to the heap */
            if (ns == TOP) {
                x = *st++;
                ns--;
            }
            if (st + ns == buf + 2 * TOP) {
                memmove(buf, st, (size_t)ns * sizeof *st);
                st = buf;
            }
            for (j = ns++; j && above(p, st[j - 1], i); j--)
                st[j] = st[j - 1];
            st[j] = i;
        }
        if (x >= 0) {
            for (k = m++; k && above(p, x, h[(k - 1) / 2]); k = (k - 1) / 2)
                h[k] = h[(k - 1) / 2];
            h[k] = x;
        }
        if ((x >= 0 && m == CAP) || (!ns && !m)) {
            /* rebalance: the top k of the bucket's last len entries become
             * the heap, the last of them the threshold, and the bucket's
             * last entries fill the gap they leave */
            if (m) { /* raise: spill the heap, take back a quarter */
                memcpy(pool + b, h, CAP * sizeof *h);
                b += len = CAP;
                k = CAP / 4;
            } else { /* refill */
                len = b;
                k = b / 8 > CAP / 4 ? b / 8 : CAP / 4;
                k = k < b ? k : b;
            }
            a = pool + b - len;
            select_top(p, a, len, k);
            memcpy(h, a, (size_t)k * sizeof *h);
            for (j = 0; j < k && j < len - k; j++)
                a[j] = a[len - 1 - j];
            b -= k;
            m = k;
            tp = p[h[m - 1]];
            heapify(p, h, m);
        }
        if (two_consecutive)
            armed = p[i] < p[ns ? st[ns - 1] : h[0]];
    }
    memcpy(pool + b, h, (size_t)m * sizeof *h);
    memcpy(pool + b + m, st, (size_t)ns * sizeof *st);
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

/* Cephes polynomial evaluation: coef[0] x^N + ... + coef[N], and the same
 * with a leading coefficient of 1 that the table leaves out. */
static double polevl(double x, const double coef[], int N)
{
    double ans = *coef++;
    int i = N;
    do
        ans = ans * x + *coef++;
    while (--i);
    return ans;
}

static double p1evl(double x, const double coef[], int N)
{
    double ans = x + *coef++;
    int i = N - 1;
    do
        ans = ans * x + *coef++;
    while (--i);
    return ans;
}

/* ndtri: approximation for 0 <= |y - 0.5| <= 3/8 */
static const double P0[5] = {
    -5.99633501014107895267E1,
    9.80010754185999661536E1,
    -5.66762857469070293439E1,
    1.39312609387279679503E1,
    -1.23916583867381258016E0,
};
static const double Q0[8] = {
    1.95448858338141759834E0,
    4.67627912898881538453E0,
    8.63602421390890590575E1,
    -2.25462687854119370527E2,
    2.00260212380060660359E2,
    -8.20372256168333339912E1,
    1.59056225126211695515E1,
    -1.18331621121330003142E0,
};
/* z = sqrt(-2 log y) between 2 and 8: y between exp(-2) and exp(-32) */
static const double P1[9] = {
    4.05544892305962419923E0,
    3.15251094599893866154E1,
    5.71628192246421288162E1,
    4.40805073893200834700E1,
    1.46849561928858024014E1,
    2.18663306850790267539E0,
    -1.40256079171354495875E-1,
    -3.50424626827848203418E-2,
    -8.57456785154685413611E-4,
};
static const double Q1[8] = {
    1.57799883256466749731E1,
    4.53907635128879210584E1,
    4.13172038254672030440E1,
    1.50425385692907503408E1,
    2.50464946208309415979E0,
    -1.42182922854787788574E-1,
    -3.80806407691578277194E-2,
    -9.33259480895457427372E-4,
};
/* z between 8 and 64: y between exp(-32) and exp(-2048) */
static const double P2[9] = {
    3.23774891776946035970E0,
    6.91522889068984211695E0,
    3.93881025292474443415E0,
    1.33303460815807542389E0,
    2.01485389549179081538E-1,
    1.23716634817820021358E-2,
    3.01581553508235416007E-4,
    2.65806974686737550832E-6,
    6.23974539184983293730E-9,
};
static const double Q2[8] = {
    6.02427039364742014255E0,
    3.67983563856160859403E0,
    1.37702099489081330271E0,
    2.16236993594496635890E-1,
    1.34204006088543189037E-2,
    3.28014464682127739104E-4,
    2.89247864745380683936E-6,
    6.79019408009981274425E-9,
};

static double ndtri1(double y0)
{
    const double s2pi = 2.50662827463100050242E0; /* sqrt(2 pi) */
    double x, y, z, y2, x0, x1;
    int code;

    if (y0 == 0.0)
        return -INFINITY;
    if (y0 == 1.0)
        return INFINITY;
    if (y0 < 0.0 || y0 > 1.0)
        return NAN;
    code = 1;
    y = y0;
    if (y > (1.0 - 0.13533528323661269189)) { /* 0.135... = exp(-2) */
        y = 1.0 - y;
        code = 0;
    }

    if (y > 0.13533528323661269189) {
        y = y - 0.5;
        y2 = y * y;
        x = y + y * (y2 * polevl(y2, P0, 4) / p1evl(y2, Q0, 8));
        x = x * s2pi;
        return x;
    }

    x = sqrt(-2.0 * log(y));
    x0 = x - log(x) / x;

    z = 1.0 / x;
    if (x < 8.0) /* y > exp(-32) = 1.2664165549e-14 */
        x1 = z * polevl(z, P1, 8) / p1evl(z, Q1, 8);
    else
        x1 = z * polevl(z, P2, 8) / p1evl(z, Q2, 8);
    x = x0 - x1;
    if (code != 0)
        x = -x;
    return x;
}

/* erfc: 1 <= x < 8 */
static const double P[9] = {
    2.46196981473530512524E-10,
    5.64189564831068821977E-1,
    7.46321056442269912687E0,
    4.86371970985681366614E1,
    1.96520832956077098242E2,
    5.26445194995477358631E2,
    9.34528527171957607540E2,
    1.02755188689515710272E3,
    5.57535335369399327526E2,
};
static const double Q[8] = {
    1.32281951154744992508E1,
    8.67072140885989742329E1,
    3.54937778887819891062E2,
    9.75708501743205489753E2,
    1.82390916687909736289E3,
    2.24633760818710981792E3,
    1.65666309194161350182E3,
    5.57535340817727675546E2,
};
/* erfc: x >= 8 */
static const double R[6] = {
    5.64189583547755073984E-1,
    1.27536670759978104416E0,
    5.01905042251180477414E0,
    6.16021097993053585195E0,
    7.40974269950448939160E0,
    2.97886665372100240670E0,
};
static const double S[6] = {
    2.26052863220117276590E0,
    9.39603524938001434673E0,
    1.20489539808096656605E1,
    1.70814450747565897222E1,
    9.60896809063285878198E0,
    3.36907645100081516050E0,
};
/* erf: |x| <= 1 */
static const double T[5] = {
    9.60497373987051638749E0,
    9.00260197203842689217E1,
    2.23200534594684319226E3,
    7.00332514112805075473E3,
    5.55923013010394962768E4,
};
static const double U[5] = {
    3.35617141647503099647E1,
    5.21357949780152679795E2,
    4.59432382970980127987E3,
    2.26290000613890934246E4,
    4.92673942608635921086E4,
};

static const double MAXLOG = 7.09782712893383996843E2; /* log(2^1024) */
static const double SQRTH = 7.07106781186547524401E-1;  /* sqrt(1/2) */

static double erf1(double x);

static double erfc1(double a)
{
    double p, q, x, y, z;

    if (isnan(a))
        return NAN;
    x = a < 0.0 ? -a : a;
    if (x < 1.0)
        return 1.0 - erf1(a);

    z = -a * a;
    if (z < -MAXLOG)
        goto under;
    z = exp(z);

    if (x < 8.0) {
        p = polevl(x, P, 8);
        q = p1evl(x, Q, 8);
    } else {
        p = polevl(x, R, 5);
        q = p1evl(x, S, 6);
    }
    y = (z * p) / q;

    if (a < 0)
        y = 2.0 - y;
    if (y == 0.0)
        goto under;
    return y;

under:
    return a < 0 ? 2.0 : 0.0;
}

static double erf1(double x)
{
    double y, z;

    if (isnan(x))
        return NAN;
    if (x < 0.0)
        return -erf1(-x);
    if (fabs(x) > 1.0)
        return 1.0 - erfc1(x);
    z = x * x;
    y = x * polevl(z, T, 4) / p1evl(z, U, 5);
    return y;
}

static double ndtr1(double a)
{
    double x, y, z;

    if (isnan(a))
        return NAN;
    x = a * SQRTH;
    z = fabs(x);
    if (z < SQRTH) {
        y = 0.5 + 0.5 * erf1(x);
    } else {
        y = 0.5 * erfc1(z);
        if (x > 0)
            y = 1.0 - y;
    }
    return y;
}

void ndtri(const double *in, double *out, int64_t n)
{
    for (int64_t i = 0; i < n; i++)
        out[i] = ndtri1(in[i]);
}

void ndtr(const double *in, double *out, int64_t n)
{
    for (int64_t i = 0; i < n; i++)
        out[i] = ndtr1(in[i]);
}

/* The longest cells: "-1.2345678901234568e-05" and "-9223372036854775808".
 * cli._CELL_BYTES sizes the caller's buffer by the same bounds. */
#define REAL_CELL 23
#define INT_CELL 20

static const uint64_t POW10[20] = {
    1, 10, 100, 1000, 10000, 100000, 1000000, 10000000, 100000000,
    1000000000, 10000000000, 100000000000, 1000000000000, 10000000000000,
    100000000000000, 1000000000000000, 10000000000000000,
    100000000000000000, 1000000000000000000, 10000000000000000000u};

static const char PAIRS[201] = /* "00" "01" ... "99" */
    "0001020304050607080910111213141516171819"
    "2021222324252627282930313233343536373839"
    "4041424344454647484950515253545556575859"
    "6061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

/* The decimal digits of u, two at a time, ending just before `end`;
 * returns where they start. */
static char *digits_before(char *end, uint64_t u)
{
    for (; u >= 100; u /= 100) {
        end -= 2;
        memcpy(end, PAIRS + 2 * (u % 100), 2);
    }
    if (u >= 10) {
        end -= 2;
        memcpy(end, PAIRS + 2 * u, 2);
    } else {
        *--end = (char)('0' + u);
    }
    return end;
}

static char *put_int(char *s, int64_t v)
{
    uint64_t u = v < 0 ? -(uint64_t)v : (uint64_t)v;
    /* the digit count: t = floor(log10 2^bits(u)) is n or n - 1, and u | 1
     * has the same count as u and is at least 1 */
    int t = (64 - __builtin_clzll(u | 1)) * 1233 >> 12;
    int n = t + ((u | 1) >= POW10[t]);
    if (v < 0)
        *s++ = '-';
    digits_before(s + n, u);
    return s + n;
}

#ifdef __SIZEOF_INT128__
typedef unsigned __int128 u128;

static u128 pow10_128(int k) /* 0 <= k <= 38 */
{
    return k < 20 ? POW10[k] : (u128)POW10[19] * POW10[k - 19];
}

/* "%.17g" of the double with these bits, for 2^-53 <= |x| < 2^128, by
 * integer arithmetic. With |x| = m 2^e and E its decimal exponent,
 * d = round-half-even(|x| 10^k) for k = 16 - E is the 17-digit significand,
 * in [10^16, 10^17). Here -16 <= E <= 38. For k >= 0, |x| 10^k is m 5^k
 * shifted by e + k (m 5^32 < 2^128); for k < 0, it is (m << e) / 10^-k
 * (m << e < 2^128). */
static char *put_exact(char *s, uint64_t bits)
{
    int b = (int)(bits >> 52 & 0x7ff) - 1023; /* floor(log2 |x|) */
    uint64_t m = (bits & ((1ull << 52) - 1)) | 1ull << 52, d;
    int e = b - 52;
    /* floor(b log10 2) for -53 <= b < 128, which is E or E - 1; the value
     * shifted is >= 0 */
    int E = ((b * 78913 + (16 << 18)) >> 18) - 16;
    u128 q, rem2, div; /* d rounds q up when rem2 > div, or = div and q odd */
    for (;;) {
        int k = 16 - E;
        if (k >= 0) {
            u128 v = (u128)m * (pow10_128(k) >> k); /* m 5^k */
            int r = -(e + k);
            if (r <= 0) {
                q = v << -r;
                rem2 = 0;
                div = 1;
            } else {
                q = v >> r;
                rem2 = (v - (q << r)) << 1;
                div = (u128)1 << r;
            }
        } else {
            div = pow10_128(-k);
            u128 n = (u128)m << e;
            q = n / div;
            rem2 = (n - q * div) << 1;
        }
        if (q < POW10[17])
            break;
        E++; /* the estimate was one low */
    }
    d = (uint64_t)q + (rem2 > div || (rem2 == div && (q & 1)));
    if (d == POW10[17]) { /* 9.99...95 rounds to the next power of ten */
        d = POW10[16];
        E++;
    }
    char dg[17];
    digits_before(dg + 17, d);
    int n = 17;
    while (dg[n - 1] == '0')
        n--;
    if (bits >> 63)
        *s++ = '-';
    if (E < -4 || E >= 17) { /* d.ddde+XX, two exponent digits */
        *s++ = dg[0];
        if (n > 1) {
            *s++ = '.';
            memcpy(s, dg + 1, (size_t)n - 1);
            s += n - 1;
        }
        *s++ = 'e';
        *s++ = E < 0 ? '-' : '+';
        memcpy(s, PAIRS + 2 * (E < 0 ? -E : E), 2);
        return s + 2;
    }
    if (E < 0) { /* 0.000ddd */
        memcpy(s, "0.000", (size_t)(1 - E));
        s += 1 - E;
        memcpy(s, dg, (size_t)n);
        return s + n;
    }
    if (n <= E + 1) { /* a whole number: ddd000 */
        memcpy(s, dg, (size_t)n);
        memset(s + n, '0', (size_t)(E + 1 - n));
        return s + E + 1;
    }
    memcpy(s, dg, (size_t)E + 1); /* ddd.ddd */
    s[E + 1] = '.';
    memcpy(s + E + 2, dg + E + 1, (size_t)(n - E - 1));
    return s + n + 1;
}
#endif

/* Python's '{:.17g}' of x, by put_exact, when 2^-53 <= |x| < 2^128; NULL
 * for any other real. */
static char *put_real(char *s, double x)
{
#ifdef __SIZEOF_INT128__
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    unsigned biased = (unsigned)(bits >> 52 & 0x7ff);
    if (biased >= 1023 - 53 && biased < 1023 + 128)
        return put_exact(s, bits);
#endif
    (void)s, (void)x; /* unused without unsigned __int128 */
    return NULL;
}

/* cols[j] is a double array when kinds[j] is 'f', else an int64 one;
 * masks[j], when not NULL, holds one byte per row, nonzero for an empty
 * cell. Each row ends in '\n'. out must hold REAL_CELL bytes per real,
 * INT_CELL per integer and one separator per cell, for each row. Returns
 * the bytes written, or -1 as soon as an unmasked real is one put_real
 * does not write: the caller then writes the block itself. */
int64_t csv_rows(const void *const *cols, const char *kinds,
                 const uint8_t *const *masks, int64_t n_cols,
                 int64_t lo, int64_t hi, char *out)
{
    char *s = out;
    for (int64_t i = lo; i < hi; i++) {
        for (int64_t j = 0; j < n_cols; j++) {
            if (!masks[j] || !masks[j][i]) {
                if (kinds[j] != 'f')
                    s = put_int(s, ((const int64_t *)cols[j])[i]);
                else if (!(s = put_real(s, ((const double *)cols[j])[i])))
                    return -1;
            }
            *s++ = j + 1 < n_cols ? ',' : '\n';
        }
    }
    return s - out;
}
