package a

// A dot import names the context roots without a selector; the rule
// must still see them.
import . "context"

func dotImported() Context {
	return Background() // want `context\.Background\(\) severs`
}

// dotShim is a compatibility wrapper, allowed by its directive.
//
//bce:ctxshim
func dotShim() error { return RunContext(TODO()) }
