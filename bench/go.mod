// The repository benchmark is a module of its own so that building it
// needs no file outside bench/ besides the program it measures. Its
// module path sits under the root module's, which is what lets it
// import viewupdate/internal/... for the traced run.
module viewupdate/bench

go 1.22

require viewupdate v0.0.0

replace viewupdate => ../
