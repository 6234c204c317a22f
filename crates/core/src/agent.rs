//! The GCN actor–critic agent (paper Fig. 3) and its DDPG update rules.
//!
//! Both networks process the circuit graph component-by-component:
//!
//! * The **actor** maps the `n x d` state matrix to an `n x 3` action matrix
//!   in `[-1, 1]`.  Its first layer is shared across components, the hidden
//!   layers are graph convolutions (shared weights, neighbourhood
//!   aggregation), and the last layer is a component-type-specific decoder.
//! * The **critic** encodes the state with a shared layer and the action with
//!   a component-type-specific encoder, propagates through the same kind of
//!   GCN stack, and reduces a shared per-node value head to a scalar `Q`.
//!
//! A minibatch of `B` samples runs as one stacked `(B·n) x d` block whose
//! `n`-row slices are the samples' graphs: dense layers see `B·n` rows, graph
//! aggregation walks the slices (a block-diagonal `Â`), and one backward pass
//! sums every weight gradient over the batch, so a DDPG update is one Adam
//! step per layer per minibatch (Lillicrap et al., Algorithm 1).
//! Single-sample passes run the same code at `B = 1`.
//!
//! Setting [`AgentKind::NonGcn`] skips the aggregation step, which is exactly
//! the paper's NG-RL ablation.

use gcnrl_linalg::Matrix;
use gcnrl_nn::{gcn_backprop, gcn_propagate, Activation, Adam, Linear, LinearGradients};
use serde::{Deserialize, Serialize};

/// Whether the agent aggregates features over the topology graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AgentKind {
    /// Full GCN-RL agent (graph aggregation enabled).
    Gcn,
    /// NG-RL ablation: no aggregation, every component is processed alone.
    NonGcn,
}

/// Number of component types (NMOS, PMOS, R, C).
const NUM_TYPES: usize = 4;
/// Per-component action width (W, L, M for transistors).
const ACTION_DIM: usize = 3;

/// A dense layer bundled with its Adam optimiser state and the gradients of
/// the latest backward pass.
#[derive(Debug, Clone)]
struct OptLinear {
    layer: Linear,
    opt_w: Adam,
    opt_b: Adam,
    grads: LinearGradients,
}

impl OptLinear {
    fn new(in_dim: usize, out_dim: usize, lr: f64, seed: u64) -> Self {
        let layer = Linear::xavier(in_dim, out_dim, seed);
        OptLinear {
            opt_w: Adam::new(in_dim * out_dim, lr),
            opt_b: Adam::new(out_dim, lr),
            grads: LinearGradients::zeros(&layer),
            layer,
        }
    }

    /// One Adam step on the stored gradients, applied in place.
    fn step(&mut self) {
        let (weight, bias) = self.layer.parameters_mut();
        self.opt_w
            .step(weight.as_mut_slice(), self.grads.d_weight.as_slice());
        self.opt_b.step(bias, &self.grads.d_bias);
    }
}

/// Serializable snapshot of the agent's learnable parameters, used by the
/// transfer experiments (train on one circuit/node, fine-tune on another).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AgentCheckpoint {
    /// Agent variant.
    pub kind: AgentKind,
    /// State dimensionality the checkpoint was trained with.
    pub state_dim: usize,
    /// Hidden width.
    pub hidden_dim: usize,
    /// Number of GCN layers.
    pub gcn_layers: usize,
    actor_input: Linear,
    actor_hidden: Vec<Linear>,
    actor_decoders: Vec<Linear>,
    critic_state: Linear,
    critic_action: Vec<Linear>,
    critic_hidden: Vec<Linear>,
    critic_out: Linear,
}

/// The topology both networks aggregate over.
struct Graph<'a> {
    /// Normalised adjacency `Â`, or `None` for the NG-RL ablation.
    adjacency: Option<&'a Matrix>,
    /// Type index of every component; row `r` of a stacked block is
    /// component `r % n`.
    types: &'a [usize],
}

impl<'a> Graph<'a> {
    fn new(kind: AgentKind, adjacency: &'a Matrix, types: &'a [usize]) -> Self {
        Graph {
            adjacency: (kind == AgentKind::Gcn).then_some(adjacency),
            types,
        }
    }

    /// A GCN layer's input: `Â x` per slice (written to `buf`), or `x` itself
    /// without aggregation.
    fn aggregate<'b>(&self, x: &'b Matrix, buf: &'b mut Matrix) -> &'b Matrix {
        match self.adjacency {
            Some(adjacency) => {
                gcn_propagate(adjacency, x, buf);
                buf
            }
            None => x,
        }
    }

    /// Backward of [`Graph::aggregate`]: `d_x = Âᵀ d_agg` per slice
    /// (`d_agg` is consumed).
    fn backprop(&self, d_agg: &mut Matrix, d_x: &mut Matrix) {
        match self.adjacency {
            Some(adjacency) => gcn_backprop(adjacency, d_agg, d_x),
            None => std::mem::swap(d_agg, d_x),
        }
    }
}

/// Buffers of one network pass, owned by the agent and reused across calls.
/// Each layer keeps only its post-ReLU output: the ReLU mask is read from it,
/// and a GCN layer's input is re-aggregated from the layer below during the
/// backward pass instead of being stored.
struct Workspace {
    /// Post-ReLU outputs: the input layer at index 0, then every GCN layer.
    acts: Vec<Matrix>,
    /// Head output: the actions (actor) or the per-node values (critic).
    head: Matrix,
    /// Loss gradient with respect to `head`.
    d_head: Matrix,
    /// Aggregated input of one GCN layer; in the backward pass, once the
    /// layer's weight gradient is taken, the gradient with respect to it.
    agg: Matrix,
    /// Loss gradient with respect to the layer output being backpropagated.
    grad: Matrix,
    /// Critic only: the stacked `(B·n) x 3` actions.
    actions: Matrix,
    /// Critic only: loss gradient with respect to `actions`.
    d_actions: Matrix,
    /// Critic only: the `n x H` state embedding, then its gradient summed
    /// over the batch.
    state: Matrix,
}

impl Workspace {
    fn new(gcn_layers: usize) -> Self {
        let buffer = || Matrix::zeros(1, 1);
        Workspace {
            acts: (0..=gcn_layers).map(|_| buffer()).collect(),
            head: buffer(),
            d_head: buffer(),
            agg: buffer(),
            grad: buffer(),
            actions: buffer(),
            d_actions: buffer(),
            state: buffer(),
        }
    }
}

/// Forward through the GCN layers: `ws.acts[0]` holds the input layer's
/// post-ReLU output, every layer above it is overwritten.
fn stack_forward(layers: &[OptLinear], graph: &Graph, ws: &mut Workspace) {
    for (l, opt) in layers.iter().enumerate() {
        let (below, above) = ws.acts.split_at_mut(l + 1);
        let input = graph.aggregate(&below[l], &mut ws.agg);
        opt.layer.forward_into(input, &mut above[0]);
        Activation::Relu.apply(&mut above[0]);
    }
}

/// Backward through the GCN layers. On entry `ws.grad` is the loss gradient
/// with respect to the top layer's output; every layer's gradients are
/// stored, and on exit `ws.grad` is the gradient with respect to `ws.acts[0]`.
fn stack_backward(layers: &mut [OptLinear], graph: &Graph, ws: &mut Workspace) {
    for (l, opt) in layers.iter_mut().enumerate().rev() {
        Activation::Relu.backprop(&ws.acts[l + 1], &mut ws.grad);
        let input = graph.aggregate(&ws.acts[l], &mut ws.agg);
        opt.layer.backward_params(input, &ws.grad, &mut opt.grads);
        opt.layer.backward_input(&ws.grad, &mut ws.agg);
        graph.backprop(&mut ws.agg, &mut ws.grad);
    }
}

/// The component-type-specific layers: row `r` of `x` goes through the layer
/// of its component's type. `out` is reshaped and overwritten.
fn typed_forward(layers: &[OptLinear], types: &[usize], x: &Matrix, out: &mut Matrix) {
    out.resize(x.rows(), layers[0].layer.out_dim());
    for r in 0..x.rows() {
        let layer = &layers[types[r % types.len()]].layer;
        let row = out.row_mut(r);
        row.fill(0.0);
        for (k, &a) in x.row(r).iter().enumerate() {
            for (o, w) in row.iter_mut().zip(layer.weight().row(k)) {
                *o += a * w;
            }
        }
        for (o, b) in row.iter_mut().zip(layer.bias()) {
            *o += b;
        }
    }
}

/// Backward of [`typed_forward`]: every type's layer gets its gradients
/// summed over the rows of that type, and `d_x` (reshaped, overwritten) the
/// loss gradient with respect to `x`.
fn typed_backward(
    layers: &mut [OptLinear],
    types: &[usize],
    x: &Matrix,
    d_out: &Matrix,
    d_x: &mut Matrix,
) {
    for opt in layers.iter_mut() {
        opt.grads.d_weight.as_mut_slice().fill(0.0);
        opt.grads.d_bias.fill(0.0);
    }
    d_x.resize(x.rows(), x.cols());
    for r in 0..x.rows() {
        let opt = &mut layers[types[r % types.len()]];
        let (weight, grads) = (opt.layer.weight(), &mut opt.grads);
        let d = d_out.row(r);
        for (k, &a) in x.row(r).iter().enumerate() {
            for (g, dv) in grads.d_weight.row_mut(k).iter_mut().zip(d) {
                *g += a * dv;
            }
        }
        for (g, dv) in grads.d_bias.iter_mut().zip(d) {
            *g += dv;
        }
        for (k, dx) in d_x.row_mut(r).iter_mut().enumerate() {
            *dx = weight.row(k).iter().zip(d).map(|(w, dv)| w * dv).sum();
        }
    }
}

/// The policy network.
struct Actor {
    input: OptLinear,
    hidden: Vec<OptLinear>,
    decoders: Vec<OptLinear>,
}

impl Actor {
    /// The actions for `states`, left in `ws.head`.
    fn forward(&self, graph: &Graph, states: &Matrix, ws: &mut Workspace) {
        self.input.layer.forward_into(states, &mut ws.acts[0]);
        Activation::Relu.apply(&mut ws.acts[0]);
        stack_forward(&self.hidden, graph, ws);
        let top = &ws.acts[self.hidden.len()];
        typed_forward(&self.decoders, graph.types, top, &mut ws.head);
        Activation::Tanh.apply(&mut ws.head);
    }

    /// Backpropagates the loss gradient with respect to the actions
    /// (`ws.d_head`, consumed) through the pass held in `ws` and stores every
    /// parameter gradient.
    fn backward(&mut self, graph: &Graph, states: &Matrix, ws: &mut Workspace) {
        Activation::Tanh.backprop(&ws.head, &mut ws.d_head);
        let top = &ws.acts[self.hidden.len()];
        typed_backward(
            &mut self.decoders,
            graph.types,
            top,
            &ws.d_head,
            &mut ws.grad,
        );
        stack_backward(&mut self.hidden, graph, ws);
        Activation::Relu.backprop(&ws.acts[0], &mut ws.grad);
        self.input
            .layer
            .backward_params(states, &ws.grad, &mut self.input.grads);
    }

    fn layers_mut(&mut self) -> impl Iterator<Item = &mut OptLinear> {
        std::iter::once(&mut self.input)
            .chain(&mut self.hidden)
            .chain(&mut self.decoders)
    }
}

/// The value network.
struct Critic {
    state: OptLinear,
    action: Vec<OptLinear>,
    hidden: Vec<OptLinear>,
    out: OptLinear,
}

impl Critic {
    /// `Q(states, actions[b])` for every sample `b`. The actions are stacked
    /// into one `(B·n) x 3` block; the state embedding is computed once and
    /// broadcast to every slice.
    fn forward(
        &self,
        graph: &Graph,
        states: &Matrix,
        actions: &[&Matrix],
        ws: &mut Workspace,
    ) -> Vec<f64> {
        let n = graph.types.len();
        ws.actions.resize(actions.len() * n, ACTION_DIM);
        let slices = ws.actions.as_mut_slice().chunks_exact_mut(n * ACTION_DIM);
        for (slice, a) in slices.zip(actions) {
            assert_eq!(a.shape(), (n, ACTION_DIM), "action matrix shape mismatch");
            slice.copy_from_slice(a.as_slice());
        }
        self.state.layer.forward_into(states, &mut ws.state);
        let combined = &mut ws.acts[0];
        typed_forward(&self.action, graph.types, &ws.actions, combined);
        for r in 0..combined.rows() {
            for (h, s) in combined.row_mut(r).iter_mut().zip(ws.state.row(r % n)) {
                *h += s;
            }
        }
        Activation::Relu.apply(combined);
        stack_forward(&self.hidden, graph, ws);
        let top = &ws.acts[self.hidden.len()];
        self.out.layer.forward_into(top, &mut ws.head);
        ws.head
            .as_slice()
            .chunks_exact(n)
            .map(|values| values.iter().sum::<f64>() / n as f64)
            .collect()
    }

    /// Backpropagates `d_q[b]`, the loss gradient with respect to `Q_b`,
    /// through the pass held in `ws`: stores every parameter gradient summed
    /// over the batch and leaves the gradient with respect to the stacked
    /// actions in `ws.d_actions`.
    fn backward(&mut self, graph: &Graph, states: &Matrix, d_q: &[f64], ws: &mut Workspace) {
        let n = graph.types.len();
        // Q_b is the mean of its slice's node values.
        ws.d_head.resize(d_q.len() * n, 1);
        for (d_values, d) in ws.d_head.as_mut_slice().chunks_exact_mut(n).zip(d_q) {
            d_values.fill(d / n as f64);
        }
        let top = &ws.acts[self.hidden.len()];
        self.out
            .layer
            .backward_params(top, &ws.d_head, &mut self.out.grads);
        self.out.layer.backward_input(&ws.d_head, &mut ws.grad);
        stack_backward(&mut self.hidden, graph, ws);
        Activation::Relu.backprop(&ws.acts[0], &mut ws.grad);
        // The broadcast state embedding collects its gradient from every slice.
        ws.state.as_mut_slice().fill(0.0);
        for r in 0..ws.grad.rows() {
            for (s, g) in ws.state.row_mut(r % n).iter_mut().zip(ws.grad.row(r)) {
                *s += g;
            }
        }
        self.state
            .layer
            .backward_params(states, &ws.state, &mut self.state.grads);
        typed_backward(
            &mut self.action,
            graph.types,
            &ws.actions,
            &ws.grad,
            &mut ws.d_actions,
        );
    }

    fn layers_mut(&mut self) -> impl Iterator<Item = &mut OptLinear> {
        std::iter::once(&mut self.state)
            .chain(&mut self.action)
            .chain(&mut self.hidden)
            .chain(std::iter::once(&mut self.out))
    }
}

/// The GCN (or NG) actor–critic agent.
pub struct GcnAgent {
    kind: AgentKind,
    state_dim: usize,
    hidden_dim: usize,
    gcn_layers: usize,
    types: Vec<usize>,
    actor: Actor,
    critic: Critic,
    /// Reused by the actor pass of every actor update.
    actor_ws: Workspace,
    /// Reused by the critic pass of every update.
    critic_ws: Workspace,
}

impl GcnAgent {
    /// Creates an agent for a circuit with the given per-component type
    /// indices and state dimensionality.
    ///
    /// # Panics
    ///
    /// Panics if `types` is empty or contains an index `>= 4`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        kind: AgentKind,
        state_dim: usize,
        hidden_dim: usize,
        gcn_layers: usize,
        types: &[usize],
        actor_lr: f64,
        critic_lr: f64,
        seed: u64,
    ) -> Self {
        assert!(!types.is_empty(), "agent needs at least one component");
        assert!(types.iter().all(|t| *t < NUM_TYPES), "invalid type index");
        let mut s = seed;
        let mut layer = |in_dim, out_dim, lr| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            OptLinear::new(in_dim, out_dim, lr, s)
        };
        let actor = Actor {
            input: layer(state_dim, hidden_dim, actor_lr),
            hidden: (0..gcn_layers)
                .map(|_| layer(hidden_dim, hidden_dim, actor_lr))
                .collect(),
            decoders: (0..NUM_TYPES)
                .map(|_| layer(hidden_dim, ACTION_DIM, actor_lr))
                .collect(),
        };
        let critic = Critic {
            state: layer(state_dim, hidden_dim, critic_lr),
            action: (0..NUM_TYPES)
                .map(|_| layer(ACTION_DIM, hidden_dim, critic_lr))
                .collect(),
            hidden: (0..gcn_layers)
                .map(|_| layer(hidden_dim, hidden_dim, critic_lr))
                .collect(),
            out: layer(hidden_dim, 1, critic_lr),
        };
        GcnAgent {
            kind,
            state_dim,
            hidden_dim,
            gcn_layers,
            types: types.to_vec(),
            actor,
            critic,
            actor_ws: Workspace::new(gcn_layers),
            critic_ws: Workspace::new(gcn_layers),
        }
    }

    /// The agent variant.
    pub fn kind(&self) -> AgentKind {
        self.kind
    }

    /// The state dimensionality the agent expects.
    pub fn state_dim(&self) -> usize {
        self.state_dim
    }

    /// Greedy action for the current policy (no exploration noise).
    pub fn act(&self, states: &Matrix, adjacency: &Matrix) -> Matrix {
        let graph = Graph::new(self.kind, adjacency, &self.types);
        let mut ws = Workspace::new(self.gcn_layers);
        self.actor.forward(&graph, states, &mut ws);
        ws.head
    }

    /// The critic's value estimate `Q(states, actions)`.
    pub fn critic_forward(&self, states: &Matrix, actions: &Matrix, adjacency: &Matrix) -> f64 {
        let graph = Graph::new(self.kind, adjacency, &self.types);
        let mut ws = Workspace::new(self.gcn_layers);
        self.critic.forward(&graph, states, &[actions], &mut ws)[0]
    }

    /// One DDPG critic regression step over a mini-batch of `(action, reward)`
    /// transitions with baseline `b`: minimises `mean_k (r_k - b - Q(s, a_k))^2`
    /// with one backward pass over the stacked batch and one Adam step per
    /// layer. Returns the batch loss before the update.
    pub fn critic_update(
        &mut self,
        states: &Matrix,
        adjacency: &Matrix,
        batch: &[(Matrix, f64)],
        baseline: f64,
    ) -> f64 {
        if batch.is_empty() {
            return 0.0;
        }
        let loss = self.critic_gradients(states, adjacency, batch, baseline);
        let _adam = gcnrl_telemetry::span!("train.adam.ns");
        self.critic.layers_mut().for_each(OptLinear::step);
        loss
    }

    /// Forward and backward pass of the [`GcnAgent::critic_update`] loss:
    /// stores every critic gradient and returns the loss.
    fn critic_gradients(
        &mut self,
        states: &Matrix,
        adjacency: &Matrix,
        batch: &[(Matrix, f64)],
        baseline: f64,
    ) -> f64 {
        let graph = Graph::new(self.kind, adjacency, &self.types);
        let actions: Vec<&Matrix> = batch.iter().map(|(a, _)| a).collect();
        let q = {
            let _forward = gcnrl_telemetry::span!("train.critic_forward.ns");
            self.critic
                .forward(&graph, states, &actions, &mut self.critic_ws)
        };
        let size = batch.len() as f64;
        let mut loss = 0.0;
        let d_q: Vec<f64> = batch
            .iter()
            .zip(&q)
            .map(|((_, reward), q)| {
                let err = reward - baseline - q;
                loss += err * err;
                -2.0 * err / size
            })
            .collect();
        let _backward = gcnrl_telemetry::span!("train.critic_backward.ns");
        self.critic
            .backward(&graph, states, &d_q, &mut self.critic_ws);
        loss / size
    }

    /// One DDPG actor step: pushes the actor's output in the direction that
    /// increases the critic's value (sampled policy gradient).
    /// Returns the critic's value before the update.
    pub fn actor_update(&mut self, states: &Matrix, adjacency: &Matrix) -> f64 {
        let _actor = gcnrl_telemetry::span!("train.actor.ns");
        let q = self.actor_gradients(states, adjacency);
        self.actor.layers_mut().for_each(OptLinear::step);
        q
    }

    /// The gradient of `-Q(s, π(s))` for every actor parameter, stored in the
    /// actor's layers. Returns `Q`.
    fn actor_gradients(&mut self, states: &Matrix, adjacency: &Matrix) -> f64 {
        let graph = Graph::new(self.kind, adjacency, &self.types);
        self.actor.forward(&graph, states, &mut self.actor_ws);
        let actions = [&self.actor_ws.head];
        let q = self
            .critic
            .forward(&graph, states, &actions, &mut self.critic_ws)[0];
        // dQ/dA; the critic's own parameter gradients are left unused.
        self.critic
            .backward(&graph, states, &[1.0], &mut self.critic_ws);
        // Gradient ascent on Q = descent on -Q.
        let d_actions = &self.critic_ws.d_actions;
        let d_head = &mut self.actor_ws.d_head;
        d_head.resize(d_actions.rows(), d_actions.cols());
        for (d, v) in d_head.as_mut_slice().iter_mut().zip(d_actions.as_slice()) {
            *d = -v;
        }
        self.actor.backward(&graph, states, &mut self.actor_ws);
        q
    }

    /// Extracts a serializable checkpoint of every learnable parameter.
    pub fn checkpoint(&self) -> AgentCheckpoint {
        let layers =
            |opts: &[OptLinear]| -> Vec<Linear> { opts.iter().map(|o| o.layer.clone()).collect() };
        AgentCheckpoint {
            kind: self.kind,
            state_dim: self.state_dim,
            hidden_dim: self.hidden_dim,
            gcn_layers: self.gcn_layers,
            actor_input: self.actor.input.layer.clone(),
            actor_hidden: layers(&self.actor.hidden),
            actor_decoders: layers(&self.actor.decoders),
            critic_state: self.critic.state.layer.clone(),
            critic_action: layers(&self.critic.action),
            critic_hidden: layers(&self.critic.hidden),
            critic_out: self.critic.out.layer.clone(),
        }
    }

    /// Loads parameters from a checkpoint (the transfer-learning step of the
    /// paper: "inheriting the pre-trained weights of the actor-critic model").
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint architecture (state dim, hidden width, depth)
    /// does not match this agent.
    pub fn load_checkpoint(&mut self, ckpt: &AgentCheckpoint) {
        assert_eq!(ckpt.state_dim, self.state_dim, "state dimension mismatch");
        assert_eq!(ckpt.hidden_dim, self.hidden_dim, "hidden width mismatch");
        assert_eq!(ckpt.gcn_layers, self.gcn_layers, "depth mismatch");
        let load = |opts: &mut [OptLinear], layers: &[Linear]| {
            for (o, l) in opts.iter_mut().zip(layers) {
                o.layer = l.clone();
            }
        };
        self.actor.input.layer = ckpt.actor_input.clone();
        load(&mut self.actor.hidden, &ckpt.actor_hidden);
        load(&mut self.actor.decoders, &ckpt.actor_decoders);
        self.critic.state.layer = ckpt.critic_state.clone();
        load(&mut self.critic.action, &ckpt.critic_action);
        load(&mut self.critic.hidden, &ckpt.critic_hidden);
        self.critic.out.layer = ckpt.critic_out.clone();
    }

    /// The per-component type indices the agent was built with.
    pub fn component_types(&self) -> &[usize] {
        &self.types
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{state_matrix, StateEncoding};
    use gcnrl_circuit::{benchmarks::Benchmark, TechnologyNode};

    fn toy_agent(kind: AgentKind) -> (GcnAgent, Matrix, Matrix) {
        let types = vec![0, 1, 2, 3, 0];
        let n = types.len();
        let state_dim = 6;
        let agent = GcnAgent::new(kind, state_dim, 16, 2, &types, 1e-2, 1e-2, 7);
        let states = Matrix::from_fn(n, state_dim, |r, c| ((r * 7 + c) as f64).sin());
        // Ring graph, normalised by hand (every degree = 3 with self loops).
        let adjacency = Matrix::from_fn(n, n, |i, j| {
            let diff = (i as i64 - j as i64).rem_euclid(n as i64);
            if diff == 0 || diff == 1 || diff == n as i64 - 1 {
                1.0 / 3.0
            } else {
                0.0
            }
        });
        (agent, states, adjacency)
    }

    /// An agent on Two-TIA (n = 9 components, not a multiple of the 4-row
    /// matmul tile) with a full 32-sample minibatch.
    fn two_tia_agent(kind: AgentKind) -> (GcnAgent, Matrix, Matrix, Vec<(Matrix, f64)>) {
        let circuit = Benchmark::TwoStageTia.circuit();
        let node = TechnologyNode::tsmc180();
        let states = state_matrix(&circuit, &node, StateEncoding::ScalarIndex);
        let adjacency = circuit.topology_graph().normalized_adjacency();
        let types: Vec<usize> = circuit
            .components()
            .iter()
            .map(|c| c.kind.type_index())
            .collect();
        assert_eq!(types.len(), 9);
        let agent = GcnAgent::new(kind, states.cols(), 16, 2, &types, 1e-3, 1e-3, 11);
        let batch = (0..32)
            .map(|b| {
                let a = Matrix::from_fn(9, ACTION_DIM, |r, c| {
                    ((b * 31 + r * 7 + c * 3) as f64 * 0.61).sin()
                });
                (a, (b as f64 * 0.37).cos())
            })
            .collect();
        (agent, states, adjacency, batch)
    }

    type Pick = fn(&mut GcnAgent) -> &mut OptLinear;

    /// Central finite difference of `loss` in the weight of the picked layer
    /// with the largest stored gradient, checked against that gradient.
    fn check_gradient(
        agent: &mut GcnAgent,
        pick: Pick,
        loss: &dyn Fn(&GcnAgent) -> f64,
        what: &str,
    ) {
        let grad = &pick(agent).grads.d_weight;
        let cols = grad.cols();
        let (index, analytic) = grad
            .as_slice()
            .iter()
            .copied()
            .enumerate()
            .max_by(|a, b| a.1.abs().total_cmp(&b.1.abs()))
            .expect("non-empty weight");
        let at = (index / cols, index % cols);
        let original = pick(agent).layer.weight()[at];
        let eps = 1e-6;
        let mut shifted = |delta: f64| {
            pick(agent).layer.parameters_mut().0[at] = original + delta;
            let value = loss(agent);
            pick(agent).layer.parameters_mut().0[at] = original;
            value
        };
        let numeric = (shifted(eps) - shifted(-eps)) / (2.0 * eps);
        assert!(
            analytic.abs() > 1e-6,
            "{what}: vanishing gradient {analytic}"
        );
        assert!(
            (numeric - analytic).abs() <= 1e-5 * analytic.abs(),
            "{what}: analytic {analytic} vs numeric {numeric}"
        );
    }

    #[test]
    fn minibatch_critic_gradient_matches_finite_differences() {
        let picks: [(&str, Pick); 4] = [
            ("state encoder", |a| &mut a.critic.state),
            ("action encoder", |a| {
                let t = a.types[0];
                &mut a.critic.action[t]
            }),
            ("GCN layer", |a| &mut a.critic.hidden[1]),
            ("value head", |a| &mut a.critic.out),
        ];
        for kind in [AgentKind::Gcn, AgentKind::NonGcn] {
            let (mut agent, states, adj, batch) = two_tia_agent(kind);
            let baseline = 0.1;
            agent.critic_gradients(&states, &adj, &batch, baseline);
            // The loss from single-sample forward passes, which also pins the
            // stacked forward pass to the per-sample one.
            let loss = |a: &GcnAgent| {
                let total: f64 = batch
                    .iter()
                    .map(|(action, reward)| {
                        let err = reward - baseline - a.critic_forward(&states, action, &adj);
                        err * err
                    })
                    .sum();
                total / batch.len() as f64
            };
            for (what, pick) in picks {
                check_gradient(&mut agent, pick, &loss, &format!("{kind:?} critic {what}"));
            }
        }
    }

    #[test]
    fn actor_gradient_matches_finite_differences_of_minus_q() {
        let picks: [(&str, Pick); 3] = [
            ("input layer", |a| &mut a.actor.input),
            ("GCN layer", |a| &mut a.actor.hidden[0]),
            ("decoder", |a| {
                let t = a.types[0];
                &mut a.actor.decoders[t]
            }),
        ];
        for kind in [AgentKind::Gcn, AgentKind::NonGcn] {
            let (mut agent, states, adj, _) = two_tia_agent(kind);
            agent.actor_gradients(&states, &adj);
            let objective = |a: &GcnAgent| -a.critic_forward(&states, &a.act(&states, &adj), &adj);
            for (what, pick) in picks {
                check_gradient(
                    &mut agent,
                    pick,
                    &objective,
                    &format!("{kind:?} actor {what}"),
                );
            }
        }
    }

    #[test]
    fn one_minibatch_is_one_adam_step_per_layer() {
        let (mut agent, states, adj, batch) = two_tia_agent(AgentKind::Gcn);
        assert_eq!(batch.len(), 32);
        agent.critic_update(&states, &adj, &batch, 0.0);
        for opt in agent.critic.layers_mut() {
            assert_eq!((opt.opt_w.steps(), opt.opt_b.steps()), (1, 1));
        }
        for opt in agent.actor.layers_mut() {
            assert_eq!((opt.opt_w.steps(), opt.opt_b.steps()), (0, 0));
        }
        agent.actor_update(&states, &adj);
        for opt in agent.actor.layers_mut() {
            assert_eq!((opt.opt_w.steps(), opt.opt_b.steps()), (1, 1));
        }
        for opt in agent.critic.layers_mut() {
            assert_eq!(opt.opt_w.steps(), 1, "the actor step moved the critic");
        }
    }

    #[test]
    fn minibatch_gradient_is_the_sum_of_per_sample_gradients() {
        fn critic_grads(agent: &mut GcnAgent) -> Vec<Vec<f64>> {
            agent
                .critic
                .layers_mut()
                .map(|o| {
                    let weight = o.grads.d_weight.as_slice().iter();
                    weight.chain(&o.grads.d_bias).copied().collect()
                })
                .collect()
        }
        for kind in [AgentKind::Gcn, AgentKind::NonGcn] {
            let (mut agent, states, adj, batch) = two_tia_agent(kind);
            agent.critic_gradients(&states, &adj, &batch, 0.1);
            // The minibatch loss is a mean: B times its gradient is the sum.
            let size = batch.len() as f64;
            let batched: Vec<Vec<f64>> = critic_grads(&mut agent)
                .into_iter()
                .map(|g| g.into_iter().map(|v| v * size).collect())
                .collect();
            let mut summed: Vec<Vec<f64>> = batched.iter().map(|g| vec![0.0; g.len()]).collect();
            for sample in batch.chunks(1) {
                agent.critic_gradients(&states, &adj, sample, 0.1);
                for (sum, g) in summed.iter_mut().zip(critic_grads(&mut agent)) {
                    for (s, v) in sum.iter_mut().zip(g) {
                        *s += v;
                    }
                }
            }
            for (layer, (b, s)) in batched.iter().zip(&summed).enumerate() {
                let scale = b.iter().fold(0.0f64, |m, v| m.max(v.abs()));
                for (x, y) in b.iter().zip(s) {
                    assert!(
                        (x - y).abs() <= 1e-12 * scale,
                        "{kind:?} critic layer {layer}: batched {x} vs summed {y}"
                    );
                }
            }
        }
    }

    #[test]
    fn actor_outputs_bounded_actions_of_right_shape() {
        for kind in [AgentKind::Gcn, AgentKind::NonGcn] {
            let (agent, states, adj) = toy_agent(kind);
            let actions = agent.act(&states, &adj);
            assert_eq!(actions.shape(), (5, 3));
            assert!(actions.as_slice().iter().all(|a| a.abs() <= 1.0));
        }
    }

    #[test]
    fn critic_produces_finite_scalar() {
        let (agent, states, adj) = toy_agent(AgentKind::Gcn);
        let actions = Matrix::filled(5, 3, 0.2);
        assert!(agent.critic_forward(&states, &actions, &adj).is_finite());
    }

    #[test]
    fn critic_update_reduces_regression_loss() {
        let (mut agent, states, adj) = toy_agent(AgentKind::Gcn);
        let batch: Vec<(Matrix, f64)> = (0..8)
            .map(|i| {
                let a = Matrix::from_fn(5, 3, |r, c| ((i + r + c) as f64 * 0.37).sin());
                let reward = a.sum() / 15.0; // a learnable smooth target
                (a, reward)
            })
            .collect();
        let first = agent.critic_update(&states, &adj, &batch, 0.0);
        let mut last = first;
        for _ in 0..60 {
            last = agent.critic_update(&states, &adj, &batch, 0.0);
        }
        assert!(
            last < first * 0.8,
            "critic loss should shrink: {first} -> {last}"
        );
    }

    #[test]
    fn actor_update_increases_critic_value() {
        let (mut agent, states, adj) = toy_agent(AgentKind::Gcn);
        // Give the critic a preference for large actions by fitting it first.
        let batch: Vec<(Matrix, f64)> = (0..8)
            .map(|i| {
                let v = -1.0 + 2.0 * (i as f64 / 7.0);
                (Matrix::filled(5, 3, v), v)
            })
            .collect();
        for _ in 0..80 {
            agent.critic_update(&states, &adj, &batch, 0.0);
        }
        let q_before = {
            let a = agent.act(&states, &adj);
            agent.critic_forward(&states, &a, &adj)
        };
        for _ in 0..30 {
            agent.actor_update(&states, &adj);
        }
        let q_after = {
            let a = agent.act(&states, &adj);
            agent.critic_forward(&states, &a, &adj)
        };
        assert!(
            q_after > q_before,
            "actor should climb the critic: {q_before} -> {q_after}"
        );
    }

    #[test]
    fn gcn_and_non_gcn_differ() {
        let (gcn, states, adj) = toy_agent(AgentKind::Gcn);
        let (ng, _, _) = toy_agent(AgentKind::NonGcn);
        assert_eq!(gcn.kind(), AgentKind::Gcn);
        assert_ne!(gcn.act(&states, &adj), ng.act(&states, &adj));
    }

    #[test]
    fn checkpoint_round_trip_preserves_policy() {
        let (agent, states, adj) = toy_agent(AgentKind::Gcn);
        let ckpt = agent.checkpoint();
        let types = agent.component_types().to_vec();
        let mut fresh = GcnAgent::new(AgentKind::Gcn, 6, 16, 2, &types, 1e-2, 1e-2, 99);
        assert_ne!(fresh.act(&states, &adj), agent.act(&states, &adj));
        fresh.load_checkpoint(&ckpt);
        assert_eq!(fresh.act(&states, &adj), agent.act(&states, &adj));
    }

    #[test]
    #[should_panic(expected = "state dimension mismatch")]
    fn incompatible_checkpoint_panics() {
        let (agent, ..) = toy_agent(AgentKind::Gcn);
        let ckpt = agent.checkpoint();
        let mut other = GcnAgent::new(AgentKind::Gcn, 7, 16, 2, &[0, 1], 1e-2, 1e-2, 1);
        other.load_checkpoint(&ckpt);
    }
}
