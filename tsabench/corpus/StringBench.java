// String manipulation: concatenation, searching, comparison (heavy use
// of the imported String class).
class StringBench {
    static String repeat(String s, int n) {
        String r = "";
        for (int i = 0; i < n; i++) r = r + s;
        return r;
    }

    static int countChar(String s, char c) {
        int n = 0;
        for (int i = 0; i < s.length(); i++) if (s.charAt(i) == c) n++;
        return n;
    }

    static boolean isPalindrome(String s) {
        int i = 0; int j = s.length() - 1;
        while (i < j) {
            if (s.charAt(i) != s.charAt(j)) return false;
            i++; j--;
        }
        return true;
    }

    static int main() {
        String base = repeat("abcab", 20);
        Sys.println(base.length());
        Sys.println(countChar(base, 'a'));
        Sys.println(base.indexOf('c'));
        String mid = base.substring(40, 60);
        Sys.println(mid);
        Sys.println(isPalindrome("racecar"));
        Sys.println(isPalindrome("racecars"));
        String num = "" + 123 + '.' + 456L + '!' + 2.5;
        Sys.println(num);
        int cmp = "apple".compareTo("banana");
        Sys.println(cmp);
        return base.length() + countChar(base, 'a') * (cmp < 0 ? 1 : 2);
    }
}
