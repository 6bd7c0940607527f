package program

// SetSealHook makes f observe every program Seal marks until the
// returned function restores the previous observer.
func SetSealHook(f func(*Program)) (restore func()) {
	prev := onSeal
	onSeal = f
	return func() { onSeal = prev }
}
