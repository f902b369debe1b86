// Huffman code construction over byte frequencies (heap + tree code).
class HNode {
    int freq;
    int symbol;   // -1 for internal
    HNode left; HNode right;
    HNode(int freq, int symbol, HNode left, HNode right) {
        this.freq = freq; this.symbol = symbol; this.left = left; this.right = right;
    }
}

class Heap {
    HNode[] items;
    int size;
    Heap(int cap) { items = new HNode[cap]; }

    void push(HNode n) {
        int i = size++;
        items[i] = n;
        while (i > 0) {
            int p = (i - 1) / 2;
            if (items[p].freq <= items[i].freq) break;
            HNode t = items[p]; items[p] = items[i]; items[i] = t;
            i = p;
        }
    }

    HNode pop() {
        HNode top = items[0];
        size--;
        items[0] = items[size];
        int i = 0;
        while (true) {
            int l = 2 * i + 1; int r = l + 1; int m = i;
            if (l < size && items[l].freq < items[m].freq) m = l;
            if (r < size && items[r].freq < items[m].freq) m = r;
            if (m == i) break;
            HNode t = items[m]; items[m] = items[i]; items[i] = t;
            i = m;
        }
        return top;
    }
}

class Huffman {
    static void depths(HNode n, int d, int[] out) {
        if (n.symbol >= 0) { out[n.symbol] = d; return; }
        depths(n.left, d + 1, out);
        depths(n.right, d + 1, out);
    }

    static int main() {
        String text = "this is an example of a huffman tree built over a short text "
                    + "with skewed letter frequencies eeeeeeeee tttttt aaaa";
        int[] freq = new int[128];
        for (int i = 0; i < text.length(); i++) freq[text.charAt(i)]++;
        Heap heap = new Heap(256);
        int alphabet = 0;
        for (int s = 0; s < 128; s++) {
            if (freq[s] > 0) { heap.push(new HNode(freq[s], s, null, null)); alphabet++; }
        }
        while (heap.size > 1) {
            HNode a = heap.pop();
            HNode b = heap.pop();
            heap.push(new HNode(a.freq + b.freq, -1, a, b));
        }
        HNode root = heap.pop();
        int[] depth = new int[128];
        depths(root, 0, depth);
        long bits = 0;
        for (int s = 0; s < 128; s++) bits += (long) freq[s] * depth[s];
        Sys.println(alphabet);
        Sys.println(bits);
        boolean better = bits < (long) text.length() * 7;
        Sys.println(better);
        return alphabet * 1000 + (int) (bits % 1000);
    }
}
