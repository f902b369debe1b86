// Multiword integer arithmetic in the style of sun.math.BigInteger:
// magnitude arrays, carries, comparisons, shifting, schoolbook multiply.
class Big {
    int[] mag; // little-endian 16-bit limbs stored in ints
    int len;

    Big(int capacity) { mag = new int[capacity]; len = 1; }

    static Big fromInt(int v) {
        Big b = new Big(8);
        b.mag[0] = v & 0xFFFF;
        b.mag[1] = (v >>> 16) & 0xFFFF;
        b.len = b.mag[1] != 0 ? 2 : 1;
        return b;
    }

    Big copy(int extra) {
        Big r = new Big(len + extra);
        for (int i = 0; i < len; i++) r.mag[i] = mag[i];
        r.len = len;
        return r;
    }

    void norm() {
        while (len > 1 && mag[len - 1] == 0) len--;
    }

    static Big add(Big a, Big b) {
        int n = Math.max(a.len, b.len) + 1;
        Big r = new Big(n);
        int carry = 0;
        for (int i = 0; i < n; i++) {
            int x = i < a.len ? a.mag[i] : 0;
            int y = i < b.len ? b.mag[i] : 0;
            int s = x + y + carry;
            r.mag[i] = s & 0xFFFF;
            carry = s >>> 16;
        }
        r.len = n;
        r.norm();
        return r;
    }

    static Big mulSmall(Big a, int m) {
        Big r = new Big(a.len + 2);
        int carry = 0;
        for (int i = 0; i < a.len; i++) {
            int p = a.mag[i] * m + carry;
            r.mag[i] = p & 0xFFFF;
            carry = p >>> 16;
        }
        r.mag[a.len] = carry;
        r.len = a.len + 1;
        r.norm();
        return r;
    }

    static Big mul(Big a, Big b) {
        Big r = new Big(a.len + b.len + 1);
        for (int i = 0; i < a.len; i++) {
            int carry = 0;
            for (int j = 0; j < b.len; j++) {
                int p = a.mag[i] * b.mag[j] + r.mag[i + j] + carry;
                r.mag[i + j] = p & 0xFFFF;
                carry = p >>> 16;
            }
            r.mag[i + b.len] += carry;
        }
        r.len = a.len + b.len;
        r.norm();
        return r;
    }

    static int cmp(Big a, Big b) {
        if (a.len != b.len) return a.len < b.len ? -1 : 1;
        for (int i = a.len - 1; i >= 0; i--) {
            if (a.mag[i] != b.mag[i]) return a.mag[i] < b.mag[i] ? -1 : 1;
        }
        return 0;
    }

    Big shl16(int limbs) {
        Big r = new Big(len + limbs);
        for (int i = 0; i < len; i++) r.mag[i + limbs] = mag[i];
        r.len = len + limbs;
        return r;
    }

    int mod10() {
        // value mod 10 via limb scan (2^16 mod 10 = 6)
        int m = 0;
        int p = 1;
        for (int i = 0; i < len; i++) {
            m = (m + (mag[i] % 10) * p) % 10;
            p = (p * 6) % 10;
        }
        return m;
    }

    static int main() {
        // factorial(25) mod 10 digits check + growth behaviour
        Big f = Big.fromInt(1);
        for (int i = 2; i <= 25; i++) f = mulSmall(f, i);
        Big g = add(f, Big.fromInt(7));
        Big h = mul(f, Big.fromInt(1000003));
        int c1 = cmp(h, g);
        int c2 = cmp(g, f.shl16(1));
        Sys.println(f.len);
        Sys.println(f.mod10());
        Sys.println(c1);
        Sys.println(c2);
        return f.len * 100 + h.len * 10 + (c1 + 1);
    }
}
