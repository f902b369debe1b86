// Conway's life on a toroidal boolean grid (2-D array access patterns).
class GameOfLife {
    boolean[][] grid;
    int w; int h;

    GameOfLife(int w, int h) {
        this.w = w; this.h = h;
        grid = new boolean[h][];
        for (int y = 0; y < h; y++) grid[y] = new boolean[w];
    }

    void seed(int s) {
        for (int y = 0; y < h; y++) {
            for (int x = 0; x < w; x++) {
                s = s * 1103515245 + 12345;
                grid[y][x] = ((s >>> 8) & 3) == 0;
            }
        }
    }

    int neighbors(int x, int y) {
        int n = 0;
        for (int dy = -1; dy <= 1; dy++) {
            for (int dx = -1; dx <= 1; dx++) {
                if (dx == 0 && dy == 0) continue;
                int nx = (x + dx + w) % w;
                int ny = (y + dy + h) % h;
                if (grid[ny][nx]) n++;
            }
        }
        return n;
    }

    void step() {
        boolean[][] next = new boolean[h][];
        for (int y = 0; y < h; y++) {
            next[y] = new boolean[w];
            for (int x = 0; x < w; x++) {
                int n = neighbors(x, y);
                next[y][x] = grid[y][x] ? n == 2 || n == 3 : n == 3;
            }
        }
        grid = next;
    }

    int population() {
        int p = 0;
        for (int y = 0; y < h; y++)
            for (int x = 0; x < w; x++)
                if (grid[y][x]) p++;
        return p;
    }

    static int main() {
        GameOfLife life = new GameOfLife(24, 16);
        life.seed(2024);
        int start = life.population();
        for (int g = 0; g < 12; g++) life.step();
        int end = life.population();
        Sys.println(start);
        Sys.println(end);
        return start * 1000 + end;
    }
}
