// Open-addressing hash table with tombstones (field/branch heavy).
class HashTable {
    int[] keys;
    int[] vals;
    boolean[] used;
    int count;

    HashTable(int cap) {
        keys = new int[cap];
        vals = new int[cap];
        used = new boolean[cap];
    }

    int slot(int key) {
        int h = key * -1640531527; // Fibonacci hashing
        h ^= h >>> 16;
        int mask = keys.length - 1;
        int i = h & mask;
        while (used[i] && keys[i] != key) i = (i + 1) & mask;
        return i;
    }

    void put(int key, int val) {
        int i = slot(key);
        if (!used[i]) { used[i] = true; keys[i] = key; count++; }
        vals[i] = val;
    }

    int get(int key, int dflt) {
        int i = slot(key);
        return used[i] ? vals[i] : dflt;
    }

    static int main() {
        HashTable t = new HashTable(4096);
        for (int i = 0; i < 1500; i++) t.put(i * 7919, i);
        int hits = 0; int misses = 0; int sum = 0;
        for (int i = 0; i < 3000; i++) {
            int v = t.get(i * 7919, -1);
            if (v >= 0) { hits++; sum += v; } else misses++;
        }
        Sys.println(t.count);
        Sys.println(hits);
        Sys.println(misses);
        Sys.println(sum);
        return hits * 10 + misses + sum % 1000;
    }
}
