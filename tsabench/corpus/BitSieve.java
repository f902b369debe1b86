// Bit-packed sieve of Eratosthenes (the paper's sun.math.BitSieve).
class BitSieve {
    long[] bits;
    int length;

    BitSieve(int n) {
        length = n;
        bits = new long[(n >> 6) + 1];
    }

    boolean get(int i) { return (bits[i >> 6] & (1L << (i & 63))) != 0; }
    void set(int i) { bits[i >> 6] |= 1L << (i & 63); }

    int sieve() {
        int count = 0;
        for (int i = 2; i < length; i++) {
            if (!get(i)) {
                count++;
                for (long j = (long) i * i; j < length; j += i) set((int) j);
            }
        }
        return count;
    }

    static int main() {
        BitSieve s = new BitSieve(20000);
        int primes = s.sieve();
        Sys.println(primes);
        int check = 0;
        for (int i = 19900; i < 20000; i++) if (!s.get(i)) check++;
        Sys.println(check);
        return primes + check;
    }
}
