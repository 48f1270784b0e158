let time f =
  let t0 = Sys.time () in
  f ();
  let t1 = Sys.time () in
  Float.max 1e-9 (t1 -. t0)

let daxpy_mflops ?(n = 1_000_000) ?(repeats = 20) () =
  if n <= 0 || repeats <= 0 then invalid_arg "Linpack.daxpy_mflops: need positive sizes";
  let x = Array.make n 1.000001 and y = Array.make n 0.5 in
  let a = 1.0000001 in
  let pass () =
    for i = 0 to n - 1 do
      y.(i) <- (a *. x.(i)) +. y.(i)
    done
  in
  let seconds = time (fun () -> for _ = 1 to repeats do pass () done) in
  (* keep the result observable so the loop cannot be dead-code eliminated *)
  if y.(0) = Float.infinity then print_string "";
  2.0 *. float_of_int n *. float_of_int repeats /. seconds /. 1e6

let dgemm_mflops ?(n = 192) ?(repeats = 5) () =
  if n <= 0 || repeats <= 0 then invalid_arg "Linpack.dgemm_mflops: need positive sizes";
  let a = Array.make (n * n) 1.0001
  and b = Array.make (n * n) 0.9999
  and c = Array.make (n * n) 0.0 in
  let pass () =
    for i = 0 to n - 1 do
      for k = 0 to n - 1 do
        let aik = a.((i * n) + k) in
        let brow = k * n in
        let crow = i * n in
        for j = 0 to n - 1 do
          c.(crow + j) <- c.(crow + j) +. (aik *. b.(brow + j))
        done
      done
    done
  in
  let seconds = time (fun () -> for _ = 1 to repeats do pass () done) in
  if c.(0) = Float.infinity then print_string "";
  let flops = 2.0 *. (float_of_int n ** 3.0) *. float_of_int repeats in
  flops /. seconds /. 1e6

let simulate_background_load ~base ~load_fraction =
  if load_fraction < 0.0 || load_fraction >= 1.0 then
    invalid_arg "Linpack.simulate_background_load: load_fraction must be in [0, 1)";
  base *. (1.0 -. load_fraction)
