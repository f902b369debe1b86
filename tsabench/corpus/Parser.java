// A recursive-descent expression parser building a class-based AST with
// virtual evaluation (the paper's sun.tools.javac.Parser category:
// dispatch-heavy, allocation-heavy front-end code).
class Node {
    int eval(int x) { return 0; }
    int size() { return 1; }
}
class Num extends Node {
    int v;
    Num(int v) { this.v = v; }
    int eval(int x) { return v; }
}
class Var extends Node {
    int eval(int x) { return x; }
}
class Bin extends Node {
    char op;
    Node l; Node r;
    Bin(char op, Node l, Node r) { this.op = op; this.l = l; this.r = r; }
    int eval(int x) {
        int a = l.eval(x);
        int b = r.eval(x);
        if (op == '+') return a + b;
        if (op == '-') return a - b;
        if (op == '*') return a * b;
        try { return a / b; } catch (ArithmeticException e) { return 0; }
    }
    int size() { return 1 + l.size() + r.size(); }
}

class Parser {
    String src;
    int pos;

    Parser(String src) { this.src = src; pos = 0; }

    char peek() { return pos < src.length() ? src.charAt(pos) : (char) 0; }
    void skip() { while (peek() == ' ') pos++; }

    Node expr() {
        Node n = term();
        skip();
        while (peek() == '+' || peek() == '-') {
            char op = peek(); pos++;
            n = new Bin(op, n, term());
            skip();
        }
        return n;
    }

    Node term() {
        Node n = factor();
        skip();
        while (peek() == '*' || peek() == '/') {
            char op = peek(); pos++;
            n = new Bin(op, n, factor());
            skip();
        }
        return n;
    }

    Node factor() {
        skip();
        char c = peek();
        if (c == '(') {
            pos++;
            Node n = expr();
            skip();
            pos++; // ')'
            return n;
        }
        if (c == 'x') { pos++; return new Var(); }
        int v = 0;
        while (peek() >= '0' && peek() <= '9') { v = v * 10 + (peek() - '0'); pos++; }
        return new Num(v);
    }

    static int main() {
        Parser p = new Parser("2 * (x + 3) - (x * x) / 4 + 100 / (x - x)");
        Node ast = p.expr();
        int total = 0;
        for (int x = 0; x <= 10; x++) total += ast.eval(x);
        Sys.println(ast.size());
        Sys.println(total);
        return ast.size() * 10000 + total;
    }
}
