module madlib/bench

go 1.24

require madlib v0.0.0

replace madlib => ../
