// Linpack-style dense linear algebra kernels (the paper's Linpack row:
// array-check heavy numeric code).
class Linpack {
    static double[][] matgen(int n, int seed) {
        double[][] a = new double[n][];
        int s = seed;
        for (int i = 0; i < n; i++) {
            a[i] = new double[n + 1];
            for (int j = 0; j < n; j++) {
                s = s * 1103515245 + 12345;
                a[i][j] = ((s >>> 8) % 2000 - 1000) / 1000.0;
            }
        }
        // right-hand side: row sums, so the solution is all ones
        for (int i = 0; i < n; i++) {
            double t = 0.0;
            for (int j = 0; j < n; j++) t += a[i][j];
            a[i][n] = t;
        }
        return a;
    }

    static int idamax(int n, double[] dx, int off) {
        int imax = 0;
        double dmax = Math.abs(dx[off]);
        for (int i = 1; i < n; i++) {
            double d = Math.abs(dx[off + i]);
            if (d > dmax) { dmax = d; imax = i; }
        }
        return imax;
    }

    static void daxpy(int n, double da, double[] dx, int xoff, double[] dy, int yoff) {
        if (da == 0.0) return;
        for (int i = 0; i < n; i++) dy[yoff + i] += da * dx[xoff + i];
    }

    static double ddot(int n, double[] dx, int xoff, double[] dy, int yoff) {
        double s = 0.0;
        for (int i = 0; i < n; i++) s += dx[xoff + i] * dy[yoff + i];
        return s;
    }

    static int dgefa(double[][] a, int n, int[] ipvt) {
        int info = 0;
        for (int k = 0; k < n - 1; k++) {
            double[] col = new double[n - k];
            for (int i = 0; i < n - k; i++) col[i] = a[k + i][k];
            int l = idamax(n - k, col, 0);
            ipvt[k] = l + k;
            if (a[l + k][k] == 0.0) { info = k; continue; }
            if (l != 0) {
                double t = a[l + k][k];
                a[l + k][k] = a[k][k];
                a[k][k] = t;
            }
            double pivot = -1.0 / a[k][k];
            for (int i = k + 1; i < n; i++) a[i][k] *= pivot;
            for (int j = k + 1; j < n; j++) {
                double t = a[ipvt[k]][j];
                if (ipvt[k] != k) {
                    a[ipvt[k]][j] = a[k][j];
                    a[k][j] = t;
                }
                for (int i = k + 1; i < n; i++) a[i][j] += t * a[i][k];
            }
        }
        ipvt[n - 1] = n - 1;
        return info;
    }

    static void dgesl(double[][] a, int n, int[] ipvt, double[] b) {
        for (int k = 0; k < n - 1; k++) {
            int l = ipvt[k];
            double t = b[l];
            if (l != k) { b[l] = b[k]; b[k] = t; }
            for (int i = k + 1; i < n; i++) b[i] += t * a[i][k];
        }
        for (int kb = 0; kb < n; kb++) {
            int k = n - kb - 1;
            b[k] /= a[k][k];
            double t = -b[k];
            for (int i = 0; i < k; i++) b[i] += t * a[i][k];
        }
    }

    static int main() {
        int n = 24;
        double[][] a = matgen(n, 1325);
        double[] b = new double[n];
        for (int i = 0; i < n; i++) b[i] = a[i][n];
        int[] ipvt = new int[n];
        dgefa(a, n, ipvt);
        dgesl(a, n, ipvt, b);
        double err = 0.0;
        for (int i = 0; i < n; i++) err += Math.abs(b[i] - 1.0);
        boolean ok = err < 1e-6;
        Sys.println(ok);
        return ok ? 1 : 0;
    }
}
