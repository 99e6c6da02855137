// The benchmark is a module of its own so that it has its own build
// file; the import path keeps the pardis/ prefix, which is what lets it
// import the parent module's internal packages.
module pardis/bench

go 1.22

require pardis v0.0.0

replace pardis => ../
