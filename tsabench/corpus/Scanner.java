// A lexical scanner in the style of sun.tools.java.Scanner: character
// classification, token loops, string handling.
class Token {
    int kind;     // 0 eof, 1 ident, 2 number, 3 op, 4 string
    int intVal;
    String text;
    Token(int kind, int intVal, String text) {
        this.kind = kind;
        this.intVal = intVal;
        this.text = text;
    }
}

class Scanner {
    String src;
    int pos;
    int line;

    Scanner(String src) { this.src = src; pos = 0; line = 1; }

    boolean isDigit(char c) { return c >= '0' && c <= '9'; }
    boolean isAlpha(char c) {
        return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_';
    }

    char peek() { return pos < src.length() ? src.charAt(pos) : (char) 0; }

    Token next() {
        while (pos < src.length()) {
            char c = src.charAt(pos);
            if (c == ' ' || c == '\t') { pos++; }
            else if (c == '\n') { pos++; line++; }
            else break;
        }
        if (pos >= src.length()) return new Token(0, line, "");
        char c = src.charAt(pos);
        if (isDigit(c)) {
            int v = 0;
            int start = pos;
            while (pos < src.length() && isDigit(src.charAt(pos))) {
                v = v * 10 + (src.charAt(pos) - '0');
                pos++;
            }
            return new Token(2, v, src.substring(start, pos));
        }
        if (isAlpha(c)) {
            int start = pos;
            while (pos < src.length() && (isAlpha(src.charAt(pos)) || isDigit(src.charAt(pos)))) pos++;
            return new Token(1, 0, src.substring(start, pos));
        }
        if (c == '"') {
            int start = pos + 1;
            pos++;
            while (pos < src.length() && src.charAt(pos) != '"') pos++;
            Token t = new Token(4, 0, src.substring(start, pos));
            pos++;
            return t;
        }
        pos++;
        return new Token(3, c, "");
    }

    static int main() {
        String program =
            "x1 = alpha + 42 * beta;\n" +
            "if (x1 >= 10) { print(\"big\"); }\n" +
            "while (count < limit) count = count + 1;\n";
        Scanner s = new Scanner(program);
        int idents = 0; int numbers = 0; int ops = 0; int strings = 0;
        int sum = 0;
        while (true) {
            Token t = s.next();
            if (t.kind == 0) break;
            if (t.kind == 1) idents++;
            else if (t.kind == 2) { numbers++; sum += t.intVal; }
            else if (t.kind == 3) ops++;
            else strings++;
        }
        Sys.println(idents);
        Sys.println(numbers);
        Sys.println(ops);
        Sys.println(strings);
        Sys.println(sum);
        Sys.println(s.line);
        return idents * 1000 + numbers * 100 + ops + strings * 10 + sum;
    }
}
