// Table-driven CRC-32 over a generated buffer (int/bit operations).
class Crc32 {
    static int[] makeTable() {
        int[] table = new int[256];
        for (int n = 0; n < 256; n++) {
            int c = n;
            for (int k = 0; k < 8; k++) {
                if ((c & 1) != 0) c = 0xEDB88320 ^ (c >>> 1);
                else c >>>= 1;
            }
            table[n] = c;
        }
        return table;
    }

    static int crc(int[] table, char[] data) {
        int c = 0xFFFFFFFF;
        for (int i = 0; i < data.length; i++) {
            c = table[(c ^ data[i]) & 0xFF] ^ (c >>> 8);
        }
        return c ^ 0xFFFFFFFF;
    }

    static int main() {
        int[] table = makeTable();
        char[] buf = new char[4096];
        int seed = 7;
        for (int i = 0; i < buf.length; i++) {
            seed = seed * 1103515245 + 12345;
            buf[i] = (char) ((seed >>> 8) & 0xFF);
        }
        int c1 = crc(table, buf);
        // incremental consistency check
        char[] half1 = new char[2048];
        for (int i = 0; i < 2048; i++) half1[i] = buf[i];
        int c2 = crc(table, half1);
        Sys.println(c1);
        Sys.println(c2);
        return c1 ^ c2;
    }
}
