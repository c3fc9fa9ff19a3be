module github.com/tftproject/tft/scripts/tftbench

go 1.22

require github.com/tftproject/tft v0.0.0

replace github.com/tftproject/tft => ../..
