// Class hierarchy with virtual dispatch and checked downcasts
// (instanceof-and-cast patterns that exercise upcast/downcast).
class Shape {
    double area() { return 0.0; }
    double perimeter() { return 0.0; }
    String name() { return "shape"; }
}
class Circle extends Shape {
    double r;
    Circle(double r) { this.r = r; }
    double area() { return 3.14159265358979 * r * r; }
    double perimeter() { return 2.0 * 3.14159265358979 * r; }
    String name() { return "circle"; }
}
class Rect extends Shape {
    double w; double h;
    Rect(double w, double h) { this.w = w; this.h = h; }
    double area() { return w * h; }
    double perimeter() { return 2.0 * (w + h); }
    String name() { return "rect"; }
}
class Square extends Rect {
    Square(double s) { super(s, s); }
    String name() { return "square"; }
}

class Shapes {
    static int main() {
        Shape[] shapes = new Shape[9];
        for (int i = 0; i < shapes.length; i++) {
            int k = i % 3;
            if (k == 0) shapes[i] = new Circle(1.0 + i);
            else if (k == 1) shapes[i] = new Rect(2.0, 1.0 + i);
            else shapes[i] = new Square(1.5 + i);
        }
        double totalArea = 0.0;
        double rectPerimeter = 0.0;
        int squares = 0;
        for (int i = 0; i < shapes.length; i++) {
            Shape s = shapes[i];
            totalArea += s.area();
            if (s instanceof Rect) {
                Rect r = (Rect) s;
                rectPerimeter += r.perimeter();
            }
            if (s instanceof Square) squares++;
        }
        Sys.println((int) totalArea);
        Sys.println((int) rectPerimeter);
        Sys.println(squares);
        Sys.println(shapes[0].name());
        return (int) totalArea + squares;
    }
}
