package trace

// ParsePacketsNDJSONIn is ParsePacketsNDJSON cut into the given number
// of pieces, for the external tests, whose batches come from tracegen.
func ParsePacketsNDJSONIn(data []byte, pieces int) ([]Packet, error) {
	out, _, err := parseNDJSONIn(data, &packetShape, pieces)
	return out, err
}
