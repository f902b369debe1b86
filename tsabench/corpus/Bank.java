// Object-oriented transactional workload: accounts, polymorphic fees,
// exception-signalled overdrafts.
class InsufficientFunds extends Exception {
    long missing;
    InsufficientFunds(long missing) { super("overdraft"); this.missing = missing; }
}

class Account {
    int id;
    long balance;
    Account(int id, long opening) { this.id = id; balance = opening; }
    long fee(long amount) { return 0; }
    void withdraw(long amount) {
        long total = amount + fee(amount);
        if (total > balance) throw new InsufficientFunds(total - balance);
        balance -= total;
    }
    void deposit(long amount) { balance += amount; }
}
class Checking extends Account {
    Checking(int id, long opening) { super(id, opening); }
    long fee(long amount) { return 25; }
}
class Savings extends Account {
    Savings(int id, long opening) { super(id, opening); }
    long fee(long amount) { return amount / 100; }
}

class Bank {
    Account[] accounts;
    int n;
    long feeIncome;

    Bank(int cap) { accounts = new Account[cap]; }

    Account open(boolean checking, long amount) {
        Account a;
        if (checking) a = new Checking(n, amount);
        else a = new Savings(n, amount);
        accounts[n] = a;
        n++;
        return a;
    }

    long transfer(int from, int to, long amount) {
        Account src = accounts[from];
        Account dst = accounts[to];
        long before = src.balance;
        try {
            src.withdraw(amount);
            dst.deposit(amount);
            feeIncome += before - src.balance - amount;
            return amount;
        } catch (InsufficientFunds e) {
            return -e.missing;
        }
    }

    long total() {
        long t = 0;
        for (int i = 0; i < n; i++) t += accounts[i].balance;
        return t;
    }

    static int main() {
        Bank bank = new Bank(32);
        for (int i = 0; i < 20; i++) bank.open(i % 2 == 0, 10000 + i * 500);
        int denied = 0;
        long moved = 0;
        int seed = 5;
        for (int t = 0; t < 200; t++) {
            seed = seed * 1103515245 + 12345;
            int from = (seed >>> 8) % 20;
            seed = seed * 1103515245 + 12345;
            int to = (seed >>> 8) % 20;
            if (from == to) continue;
            long amount = 100 + (seed >>> 16) % 5000;
            long r = bank.transfer(from, to, amount);
            if (r < 0) denied++; else moved += r;
        }
        Sys.println(bank.total() + bank.feeIncome);
        Sys.println(denied);
        Sys.println(moved);
        return denied + (int) (moved % 10000);
    }
}
