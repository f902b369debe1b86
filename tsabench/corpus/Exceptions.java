// Exception-heavy control flow: custom hierarchies, rethrow, finally
// (exercises the try/catch lowering and the handler phi machinery).
class AppError extends Exception {
    int code;
    AppError(int code) { super("app"); this.code = code; }
}
class Fatal extends AppError {
    Fatal(int code) { super(code); }
}

class Exceptions {
    static int risky(int mode, int[] data) {
        if (mode == 0) return data[100];            // bounds
        if (mode == 1) return 10 / (mode - 1);      // arithmetic
        if (mode == 2) { int[] x = null; return x[0]; } // null
        if (mode == 3) throw new AppError(33);
        if (mode == 4) throw new Fatal(44);
        return data[mode];
    }

    static int shielded(int mode, int[] data) {
        int out = 0;
        try {
            out = risky(mode, data);
        } catch (Fatal f) {
            out = 4000 + f.code;
        } catch (AppError a) {
            out = 3000 + a.code;
        } catch (IndexOutOfBoundsException e) {
            out = 1000;
        } catch (ArithmeticException e) {
            out = 1100;
        } catch (NullPointerException e) {
            out = 1200;
        } finally {
            out += 7;
        }
        return out;
    }

    static int nested(int depth) {
        try {
            if (depth == 0) throw new AppError(depth);
            return nested(depth - 1) + 1;
        } catch (AppError e) {
            if (depth < 3) throw new AppError(e.code + 100);
            return e.code;
        }
    }

    static int main() {
        int[] data = new int[8];
        for (int i = 0; i < 8; i++) data[i] = i * 11;
        int total = 0;
        for (int mode = 0; mode <= 5; mode++) {
            int r = shielded(mode, data);
            Sys.println(r);
            total += r;
        }
        int n;
        try { n = nested(6); } catch (AppError e) { n = -e.code; }
        Sys.println(n);
        return total + n;
    }
}
