(* Entries live in a dense array (for the LRU scan) indexed by a hash
   table (for lookup); each entry knows its slot so removal is a swap.
   A small direct-mapped memo of recent slots, indexed by the low page
   bits, short-cuts the hash lookup. A memo slot is only a hint: it is
   used when the live entry there has the page asked for, and since
   pages are unique among live entries that entry is the page's. *)
type 'a entry = {
  vpage : int;
  payload : 'a;
  mutable last_use : int;
  mutable slot : int;
}

module H = Hashtbl.Make (Int)

type 'a t = {
  capacity : int;
  table : 'a entry H.t;
  mutable live : 'a entry array; (* [0, count) in use; created on first insert *)
  mutable count : int;
  memo : int array; (* vpage land memo_mask -> slot hint *)
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
}

let memo_mask = 15

let create ~entries =
  if entries <= 0 then invalid_arg "Tlb.create";
  {
    capacity = entries;
    table = H.create entries;
    live = [||];
    count = 0;
    memo = Array.make (memo_mask + 1) 0;
    tick = 0;
    hits = 0;
    misses = 0;
  }

let capacity t = t.capacity

let hit t e =
  e.last_use <- t.tick;
  t.hits <- t.hits + 1;
  e.payload

let lookup t ~vpage ~absent =
  t.tick <- t.tick + 1;
  let m = vpage land memo_mask in
  let s = t.memo.(m) in
  if s < t.count && t.live.(s).vpage = vpage then hit t t.live.(s)
  else
    match H.find t.table vpage with
    | e ->
      t.memo.(m) <- e.slot;
      hit t e
    | exception Not_found ->
      t.misses <- t.misses + 1;
      absent

let remove t e =
  H.remove t.table e.vpage;
  let last = t.live.(t.count - 1) in
  t.live.(e.slot) <- last;
  last.slot <- e.slot;
  t.count <- t.count - 1

(* Ticks are unique, so the least recently used entry is unique too. *)
let evict_lru t =
  if t.count > 0 then begin
    let victim = ref t.live.(0) in
    for i = 1 to t.count - 1 do
      let e = t.live.(i) in
      if e.last_use < !victim.last_use then victim := e
    done;
    remove t !victim
  end

let insert t ~vpage payload =
  t.tick <- t.tick + 1;
  let e = { vpage; payload; last_use = t.tick; slot = 0 } in
  match H.find t.table vpage with
  | old ->
    e.slot <- old.slot;
    t.live.(old.slot) <- e;
    H.replace t.table vpage e
  | exception Not_found ->
    if t.count >= t.capacity then evict_lru t;
    if Array.length t.live = 0 then t.live <- Array.make t.capacity e;
    e.slot <- t.count;
    t.live.(t.count) <- e;
    t.count <- t.count + 1;
    H.replace t.table vpage e

let invalidate t ~vpage =
  match H.find t.table vpage with
  | e -> remove t e
  | exception Not_found -> ()

let flush t =
  H.reset t.table;
  t.count <- 0

let occupancy t = t.count
let hits t = t.hits
let misses t = t.misses

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0
