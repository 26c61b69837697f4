package admission

// The adaptive policy's fixed clamp and step, for the external tests.
const (
	EpsMin  = epsMin
	EpsMax  = epsMax
	EpsStep = epsStep
)
