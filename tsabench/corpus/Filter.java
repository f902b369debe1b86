// Separable box filter over a procedurally generated raster.
// Memory-optimization workload: local scratch buffers that never
// escape (facts survive calls), a gradient plane superseded by the
// smoothed output (dead stores), and a sentinel reset pattern.
class Filter {
    static int checksum = 0;

    static int[] render(int w) {
        int[] img = new int[w];
        int seed = 42;
        for (int i = 0; i < w; i++) {
            seed = seed * 1103515245 + 12345;
            img[i] = (seed >>> 16) & 0xFF;
        }
        return img;
    }

    static int pass(int[] img) {
        int[] tmp = new int[img.length];
        int[] edges = new int[img.length];
        int acc = 0;
        for (int i = 1; i < img.length - 1; i++) {
            edges[i] = img[i + 1] - img[i - 1];
            tmp[i] = (img[i - 1] + img[i] + img[i + 1]) / 3;
            acc = acc + tmp[i];
        }
        for (int i = 1; i < img.length - 1; i++) img[i] = tmp[i];
        return acc;
    }

    static int main() {
        checksum = -1;
        checksum = 0;
        int[] img = render(512);
        int[] hist = new int[4];
        hist[0] = img[0];
        int lo = hist[0];
        checksum = checksum + pass(img);
        int hi = hist[0];
        for (int round = 0; round < 8; round++) {
            checksum = checksum + pass(img);
        }
        Sys.println(lo + hi);
        Sys.println(checksum);
        return checksum;
    }
}
