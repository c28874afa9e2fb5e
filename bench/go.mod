module github.com/olive-vne/olive/bench

go 1.24

require github.com/olive-vne/olive v0.0.0

replace github.com/olive-vne/olive => ../
