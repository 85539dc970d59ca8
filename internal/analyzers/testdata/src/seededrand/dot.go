package a

// A dot import names the global draws without a selector; the rule
// must still see them, and still allow the seeded constructors.
import . "math/rand"

func dotImported() {
	_ = Intn(10) // want `global math/rand\.Intn`
	_ = New(NewSource(42)).Intn(10)
}
