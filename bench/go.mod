module erasmus/bench

go 1.22

require erasmus v0.0.0

replace erasmus => ../
