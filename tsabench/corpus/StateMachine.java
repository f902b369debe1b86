// A table-driven state machine interpreter (switch-free dispatch over
// data): dense control flow over small integers.
class StateMachine {
    int[][] delta;
    boolean[] accept;

    StateMachine() {
        // accepts strings over {a,b} with an even number of 'a' and
        // at least one 'b': 4 states x 2 symbols
        delta = new int[4][];
        for (int s = 0; s < 4; s++) delta[s] = new int[2];
        // state encoding: bit0 = odd a's, bit1 = seen b
        for (int s = 0; s < 4; s++) {
            delta[s][0] = s ^ 1;       // 'a' flips parity
            delta[s][1] = s | 2;       // 'b' sets seen flag
        }
        accept = new boolean[4];
        accept[2] = true;              // even a's, seen b
    }

    boolean run(String input) {
        int s = 0;
        for (int i = 0; i < input.length(); i++) {
            char c = input.charAt(i);
            int sym = c == 'a' ? 0 : 1;
            s = delta[s][sym];
        }
        return accept[s];
    }

    static String genInput(int seed, int len) {
        String r = "";
        int s = seed;
        for (int i = 0; i < len; i++) {
            s = s * 1103515245 + 12345;
            r = r + (((s >>> 8) & 1) == 0 ? 'a' : 'b');
        }
        return r;
    }

    static int main() {
        StateMachine m = new StateMachine();
        int accepted = 0;
        for (int trial = 0; trial < 40; trial++) {
            String input = genInput(trial, 20 + trial % 11);
            if (m.run(input)) accepted++;
        }
        Sys.println(accepted);
        Sys.println(m.run("aabb"));
        Sys.println(m.run("aab"));
        return accepted;
    }
}
