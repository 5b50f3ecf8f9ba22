type t = {
  pool : Exec.Pool.t option;
  faults : Faults.Spec.t option;
  checked : bool;
  net : Params.net_profile;
  lanes : bool;
}

let default =
  { pool = None; faults = None; checked = false; net = Params.net10m; lanes = false }
