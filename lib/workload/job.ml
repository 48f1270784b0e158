type t = { app : string; wapp : float }

let make ~app ~wapp =
  if wapp <= 0.0 || not (Float.is_finite wapp) then
    invalid_arg "Job.make: wapp must be positive and finite";
  if app = "" then invalid_arg "Job.make: empty application name";
  { app; wapp }

let of_dgemm d = make ~app:(Printf.sprintf "dgemm-%d" (Dgemm.order d)) ~wapp:(Dgemm.mflops d)

let app t = t.app
let wapp t = t.wapp
