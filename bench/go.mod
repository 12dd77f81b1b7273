module github.com/cameo-stream/cameo/bench

go 1.22

require github.com/cameo-stream/cameo v0.0.0

replace github.com/cameo-stream/cameo => ../
