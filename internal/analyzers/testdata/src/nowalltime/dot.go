package a

// A dot import names the wall-clock functions without a selector; the
// rule must still see them.
import . "time"

func dotImported() {
	_ = Now() // want `wall-clock time\.Now`
}

func dotImportedAllowed() {
	_ = Now() //bce:wallclock profiling hook
}
