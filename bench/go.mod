module github.com/absmac/absmac/bench

go 1.24

require github.com/absmac/absmac v0.0.0

replace github.com/absmac/absmac => ../
