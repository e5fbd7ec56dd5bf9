package trace

// OracleParseEventLine exposes the reflective decoder to the external
// test package (the ingest fuzz target).
var OracleParseEventLine = oracleParseEventLine
