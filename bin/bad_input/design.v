module top (a, y);
  input a;
  output y;
  INV_X1 u1 (.A(a), .Y());
  wire ;
endmodule
