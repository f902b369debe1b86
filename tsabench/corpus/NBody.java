// Planar n-body integration (double-precision field arithmetic).
class Body {
    double x; double y;
    double vx; double vy;
    double mass;
    Body(double x, double y, double vx, double vy, double mass) {
        this.x = x; this.y = y; this.vx = vx; this.vy = vy; this.mass = mass;
    }
}

class NBody {
    Body[] bodies;

    NBody(int n) {
        bodies = new Body[n];
        int seed = 17;
        for (int i = 0; i < n; i++) {
            seed = seed * 1103515245 + 12345;
            double px = ((seed >>> 8) % 1000) / 100.0 - 5.0;
            seed = seed * 1103515245 + 12345;
            double py = ((seed >>> 8) % 1000) / 100.0 - 5.0;
            bodies[i] = new Body(px, py, 0.0, 0.0, 1.0 + i % 3);
        }
    }

    void step(double dt) {
        for (int i = 0; i < bodies.length; i++) {
            Body a = bodies[i];
            double fx = 0.0; double fy = 0.0;
            for (int j = 0; j < bodies.length; j++) {
                if (i == j) continue;
                Body b = bodies[j];
                double dx = b.x - a.x;
                double dy = b.y - a.y;
                double d2 = dx * dx + dy * dy + 0.01;
                double inv = b.mass / (d2 * Math.sqrt(d2));
                fx += dx * inv;
                fy += dy * inv;
            }
            a.vx += fx * dt;
            a.vy += fy * dt;
        }
        for (int i = 0; i < bodies.length; i++) {
            Body a = bodies[i];
            a.x += a.vx * dt;
            a.y += a.vy * dt;
        }
    }

    double energy() {
        double e = 0.0;
        for (int i = 0; i < bodies.length; i++) {
            Body a = bodies[i];
            e += 0.5 * a.mass * (a.vx * a.vx + a.vy * a.vy);
        }
        return e;
    }

    static int main() {
        NBody sim = new NBody(24);
        for (int s = 0; s < 50; s++) sim.step(0.01);
        double e = sim.energy();
        boolean sane = e > 0.0 && e < 1e9;
        Sys.println(sane);
        return sane ? (int) (e * 100.0) % 100000 : -1;
    }
}
