// Grid path search with labeled break/continue (multi-level exits
// exercise the CST Break-depth machinery end to end).
class Pathfind {
    static int[][] makeGrid(int n, int seed) {
        int[][] g = new int[n][];
        int s = seed;
        for (int y = 0; y < n; y++) {
            g[y] = new int[n];
            for (int x = 0; x < n; x++) {
                s = s * 1103515245 + 12345;
                g[y][x] = (s >>> 8) % 10;
            }
        }
        return g;
    }

    // Finds the first 2x2 block whose sum exceeds the threshold.
    static int findBlock(int[][] g, int threshold) {
        int n = g.length;
        scan:
        for (int y = 0; y + 1 < n; y++) {
            for (int x = 0; x + 1 < n; x++) {
                int sum = g[y][x] + g[y][x + 1] + g[y + 1][x] + g[y + 1][x + 1];
                if (sum > threshold) {
                    return y * 100 + x;
                }
                if (g[y][x] == 0) continue scan; // skip rows starting dead
                if (x > n / 2 && sum < threshold / 4) break scan;
            }
        }
        return -1;
    }

    // Greedy path: walk right/down maximizing cell values; labeled
    // continue restarts from the best row when stuck.
    static int greedy(int[][] g) {
        int n = g.length;
        int x = 0; int y = 0;
        int collected = 0;
        int restarts = 0;
        walk:
        while (y < n - 1 || x < n - 1) {
            collected += g[y][x];
            if (x == n - 1) { y++; continue; }
            if (y == n - 1) { x++; continue; }
            if (g[y][x + 1] >= g[y + 1][x]) { x++; } else { y++; }
            if (g[y][x] == 0 && restarts < 3) {
                restarts++;
                x = 0;
                continue walk;
            }
        }
        return collected + g[n - 1][n - 1] + restarts * 1000;
    }

    static int main() {
        int[][] g = makeGrid(12, 77);
        int block = findBlock(g, 28);
        int path = greedy(g);
        Sys.println(block);
        Sys.println(path);
        return block + path;
    }
}
