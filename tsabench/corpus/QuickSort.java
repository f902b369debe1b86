// In-place quicksort with an insertion-sort tail (array/branch heavy).
class QuickSort {
    static void insertion(int[] a, int lo, int hi) {
        for (int i = lo + 1; i <= hi; i++) {
            int v = a[i];
            int j = i - 1;
            while (j >= lo && a[j] > v) { a[j + 1] = a[j]; j--; }
            a[j + 1] = v;
        }
    }

    static void sort(int[] a, int lo, int hi) {
        while (hi - lo > 12) {
            int p = a[(lo + hi) >>> 1];
            int i = lo; int j = hi;
            while (i <= j) {
                while (a[i] < p) i++;
                while (a[j] > p) j--;
                if (i <= j) { int t = a[i]; a[i] = a[j]; a[j] = t; i++; j--; }
            }
            if (j - lo < hi - i) { sort(a, lo, j); lo = i; }
            else { sort(a, i, hi); hi = j; }
        }
        insertion(a, lo, hi);
    }

    static int main() {
        int n = 3000;
        int[] a = new int[n];
        int seed = 42;
        for (int i = 0; i < n; i++) {
            seed = seed * 1103515245 + 12345;
            a[i] = (seed >>> 8) % 100000;
        }
        sort(a, 0, n - 1);
        int checksum = 0;
        for (int i = 1; i < n; i++) {
            if (a[i - 1] > a[i]) return -1;
            checksum = checksum * 31 + a[i] % 97;
        }
        Sys.println(checksum);
        return checksum;
    }
}
