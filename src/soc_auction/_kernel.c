/* The compiled kernels of soc_auction, loaded by soc_auction._kernel.
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
 * exact_sum: CPython's math.fsum over a double array, bit for bit.
 *
 * ndtri, ndtr: the standard normal quantile and cdf over a double array,
 * line-for-line ports of S. L. Moshier's Cephes ndtri.c and ndtr.c (with
 * its erf and erfc), the code scipy.special runs, so each value equals
 * scipy's bit for bit.
 *
 * csv_rows: rows [lo, hi) of equal-length float64 and int64 columns as CSV
 * text, in the cell rule of cli._cells. Integers are written two digits at a
 * time. A real with 2^-53 <= |x| < 2^128 (about 1.1e-16 to 3.4e38) is
 * written by put_exact, which rounds it to 17 significant digits exactly in
 * unsigned 128-bit integers; glibc's snprintf("%.17g"), under the "C"
 * locale, writes the other reals (0, infinities, smaller and larger
 * magnitudes), and every real on a compiler without unsigned __int128.
 *
 * Build without -ffast-math and with -ffp-contract=off: the error-free
 * transforms need exact IEEE rounding, and the polynomial loops must not
 * fuse a multiply and an add that Cephes rounds apart.
 */
#define _POSIX_C_SOURCE 200809L /* newlocale, uselocale */
#include <locale.h>
#include <math.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>

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

/* The longest cells: "-2.2250738585072014e-308" and "-9223372036854775808".
 * cli._CELL_BYTES sizes the caller's buffer by the same bounds. */
#define REAL_CELL 24
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

/* Python's '{:.17g}' of every double. put_exact writes the reals of
 * 2^-53 <= |x| < 2^128 and glibc's "%.17g" the others. glibc gives the
 * same text as Python (the same shortest exponent, the same half-even
 * ties) except for a NaN with its sign bit set, which glibc writes "-nan"
 * and Python "nan". */
static char *put_real(char *s, double x)
{
    if (isnan(x)) {
        *s++ = 'n';
        *s++ = 'a';
        *s++ = 'n';
        return s;
    }
#ifdef __SIZEOF_INT128__
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    unsigned biased = (unsigned)(bits >> 52 & 0x7ff);
    if (biased >= 1023 - 53 && biased < 1023 + 128)
        return put_exact(s, bits);
#endif
    return s + snprintf(s, REAL_CELL + 1, "%.17g", x);
}

/* cols[j] is a double array when kinds[j] is 'f', else an int64 one;
 * masks[j], when not NULL, holds one byte per row, nonzero for an empty
 * cell. Each row ends in '\n'. out must hold REAL_CELL bytes per real,
 * INT_CELL per integer and one separator per cell, for each row. The
 * numbers are written in the "C" locale whatever LC_NUMERIC is, so the
 * decimal point is always '.'. Returns the bytes written, or -1 when the
 * locale object cannot be made (out of memory). */
int64_t csv_rows(const void *const *cols, const char *kinds,
                 const uint8_t *const *masks, int64_t n_cols,
                 int64_t lo, int64_t hi, char *out)
{
    locale_t c_locale = newlocale(LC_NUMERIC_MASK, "C", (locale_t)0);
    if (c_locale == (locale_t)0)
        return -1;
    locale_t caller = uselocale(c_locale);
    char *s = out;
    for (int64_t i = lo; i < hi; i++) {
        for (int64_t j = 0; j < n_cols; j++) {
            if (!masks[j] || !masks[j][i]) {
                if (kinds[j] == 'f')
                    s = put_real(s, ((const double *)cols[j])[i]);
                else
                    s = put_int(s, ((const int64_t *)cols[j])[i]);
            }
            *s++ = j + 1 < n_cols ? ',' : '\n';
        }
    }
    uselocale(caller);
    freelocale(c_locale);
    return s - out;
}
