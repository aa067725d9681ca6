type policy = Least_loaded | Affinity

let policy_of_string = function
  | "least-loaded" -> Some Least_loaded
  | "affinity" -> Some Affinity
  | _ -> None

let policy_name = function
  | Least_loaded -> "least-loaded"
  | Affinity -> "affinity"

type t = {
  ndev : int;
  pol : policy;
  shreds : int array; (* outstanding shreds per device *)
  batches : int array; (* outstanding batches per device *)
  homes : (string, int) Hashtbl.t; (* kernel -> affinity device *)
}

let create ~devices ~policy =
  if devices <= 0 then invalid_arg "Placement.create: devices";
  {
    ndev = devices;
    pol = policy;
    shreds = Array.make devices 0;
    batches = Array.make devices 0;
    homes = Hashtbl.create 8;
  }

let no_penalty (_ : int) = 0

let least_loaded t penalty =
  let cost d = t.shreds.(d) + penalty d in
  let best = ref 0 in
  for d = 1 to t.ndev - 1 do
    if cost d < cost !best then best := d
  done;
  !best

let place ?(penalty = no_penalty) t ~kernel ~shreds =
  let dev =
    match t.pol with
    | Least_loaded -> least_loaded t penalty
    | Affinity -> (
      let key = String.lowercase_ascii kernel in
      match Hashtbl.find_opt t.homes key with
      | Some home ->
        (* overflow to least-loaded only when home is busy and an idle
           peer exists — affinity is a preference, not a pin *)
        if t.shreds.(home) + penalty home = 0 then home
        else begin
          let ll = least_loaded t penalty in
          if t.shreds.(ll) + penalty ll = 0 then ll else home
        end
      | None ->
        let d = least_loaded t penalty in
        Hashtbl.replace t.homes key d;
        d)
  in
  t.shreds.(dev) <- t.shreds.(dev) + shreds;
  t.batches.(dev) <- t.batches.(dev) + 1;
  dev

let release t ~dev ~shreds =
  if dev < 0 || dev >= t.ndev then invalid_arg "Placement.release: dev";
  t.shreds.(dev) <- max 0 (t.shreds.(dev) - shreds);
  t.batches.(dev) <- max 0 (t.batches.(dev) - 1)

let load t ~dev =
  if dev < 0 || dev >= t.ndev then invalid_arg "Placement.load: dev";
  (t.shreds.(dev), t.batches.(dev))
