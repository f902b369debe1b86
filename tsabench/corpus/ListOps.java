// Linked-list construction, reversal, merge sort (pointer chasing;
// null-check heavy after inlining is impossible).
class Cell {
    int v;
    Cell next;
    Cell(int v, Cell next) { this.v = v; this.next = next; }
}

class ListOps {
    static Cell fromRange(int n) {
        Cell head = null;
        int seed = 99;
        for (int i = 0; i < n; i++) {
            seed = seed * 1103515245 + 12345;
            head = new Cell((seed >>> 8) % 1000, head);
        }
        return head;
    }

    static Cell reverse(Cell c) {
        Cell prev = null;
        while (c != null) {
            Cell next = c.next;
            c.next = prev;
            prev = c;
            c = next;
        }
        return prev;
    }

    static int length(Cell c) {
        int n = 0;
        while (c != null) { n++; c = c.next; }
        return n;
    }

    static Cell merge(Cell a, Cell b) {
        Cell head = null; Cell tail = null;
        while (a != null && b != null) {
            Cell pick;
            if (a.v <= b.v) { pick = a; a = a.next; }
            else { pick = b; b = b.next; }
            if (tail == null) { head = pick; tail = pick; }
            else { tail.next = pick; tail = pick; }
        }
        Cell rest = a != null ? a : b;
        if (tail == null) return rest;
        tail.next = rest;
        return head;
    }

    static Cell sort(Cell c) {
        if (c == null || c.next == null) return c;
        // split via slow/fast pointers
        Cell slow = c; Cell fast = c.next;
        while (fast != null && fast.next != null) {
            slow = slow.next;
            fast = fast.next.next;
        }
        Cell second = slow.next;
        slow.next = null;
        return merge(sort(c), sort(second));
    }

    static int main() {
        Cell list = fromRange(300);
        list = reverse(list);
        list = sort(list);
        int n = length(list);
        int sum = 0; int sorted = 1;
        Cell c = list;
        while (c != null) {
            sum += c.v;
            if (c.next != null && c.v > c.next.v) sorted = 0;
            c = c.next;
        }
        Sys.println(n);
        Sys.println(sum);
        Sys.println(sorted == 1);
        return n * sorted + sum % 1000;
    }
}
