// Scaled fixed-point arithmetic in the style of sun.math.BigDecimal.
class Dec {
    long unscaled;
    int scale;

    Dec(long unscaled, int scale) {
        this.unscaled = unscaled;
        this.scale = scale;
    }

    static long pow10(int n) {
        long p = 1;
        for (int i = 0; i < n; i++) p *= 10;
        return p;
    }

    static Dec rescale(Dec d, int newScale) {
        if (newScale == d.scale) return d;
        if (newScale > d.scale) return new Dec(d.unscaled * pow10(newScale - d.scale), newScale);
        long div = pow10(d.scale - newScale);
        long q = d.unscaled / div;
        long r = d.unscaled % div;
        // round half up
        if (Math.abs(r) * 2 >= div) q += d.unscaled >= 0 ? 1 : -1;
        return new Dec(q, newScale);
    }

    static Dec add(Dec a, Dec b) {
        int s = Math.max(a.scale, b.scale);
        return new Dec(rescale(a, s).unscaled + rescale(b, s).unscaled, s);
    }

    static Dec mul(Dec a, Dec b) {
        return new Dec(a.unscaled * b.unscaled, a.scale + b.scale);
    }

    static Dec div(Dec a, Dec b, int scale) {
        long num = a.unscaled * pow10(scale + b.scale - a.scale);
        return new Dec(num / b.unscaled, scale);
    }

    int cmp(Dec o) {
        int s = Math.max(scale, o.scale);
        long x = rescale(this, s).unscaled;
        long y = rescale(o, s).unscaled;
        return x < y ? -1 : x > y ? 1 : 0;
    }

    static int main() {
        // compound interest: 1000.00 at 3.25% for 12 periods
        Dec balance = new Dec(100000, 2);
        Dec rate = new Dec(325, 4);
        Dec one = new Dec(1, 0);
        Dec factor = add(one, rate);
        for (int i = 0; i < 12; i++) {
            balance = rescale(mul(balance, factor), 2);
        }
        Sys.println(balance.unscaled);
        Dec third = div(new Dec(1, 0), new Dec(3, 0), 6);
        Sys.println(third.unscaled);
        int c = balance.cmp(new Dec(140000, 2));
        Sys.println(c);
        return (int) (balance.unscaled % 100000) + c;
    }
}
