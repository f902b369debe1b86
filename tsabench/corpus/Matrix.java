// Integer matrix algebra: multiply, transpose, power (nested loops).
class Matrix {
    int n;
    int[][] m;

    Matrix(int n) {
        this.n = n;
        m = new int[n][];
        for (int i = 0; i < n; i++) m[i] = new int[n];
    }

    static Matrix identity(int n) {
        Matrix r = new Matrix(n);
        for (int i = 0; i < n; i++) r.m[i][i] = 1;
        return r;
    }

    Matrix mul(Matrix o) {
        Matrix r = new Matrix(n);
        for (int i = 0; i < n; i++) {
            for (int k = 0; k < n; k++) {
                int a = m[i][k];
                if (a == 0) continue;
                for (int j = 0; j < n; j++) {
                    r.m[i][j] += a * o.m[k][j];
                }
            }
        }
        return r;
    }

    Matrix transpose() {
        Matrix r = new Matrix(n);
        for (int i = 0; i < n; i++)
            for (int j = 0; j < n; j++) r.m[j][i] = m[i][j];
        return r;
    }

    Matrix pow(int e) {
        Matrix base = this;
        Matrix acc = identity(n);
        while (e > 0) {
            if ((e & 1) == 1) acc = acc.mul(base);
            base = base.mul(base);
            e >>= 1;
        }
        return acc;
    }

    int trace() {
        int t = 0;
        for (int i = 0; i < n; i++) t += m[i][i];
        return t;
    }

    static int main() {
        // Fibonacci via matrix power (mod arithmetic keeps ints small).
        Matrix fib = new Matrix(2);
        fib.m[0][0] = 1; fib.m[0][1] = 1; fib.m[1][0] = 1;
        Matrix f20 = fib.pow(20);
        Sys.println(f20.m[0][1]);
        Matrix a = new Matrix(8);
        for (int i = 0; i < 8; i++)
            for (int j = 0; j < 8; j++) a.m[i][j] = (i * 3 + j * 7) % 11;
        Matrix b = a.mul(a.transpose());
        Sys.println(b.trace());
        return f20.m[0][1] + b.trace();
    }
}
